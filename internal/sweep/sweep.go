// Package sweep enumerates and runs predictor design-space sweeps:
// the constant-counter-budget tiers of the paper's Figures 2-10
// (2^4 .. 2^15 two-bit counters) and the row/column splits within
// each tier. Results are collected into Surface values (tier x split
// grids) supporting the paper's analyses: best-in-tier marking
// (Figures 4, 6) and surface differencing (Figures 7, 8).
//
// Execution rides the simulation engine's batched fast path
// (sim.RunConfigs): each worker streams the trace in L2-sized chunks
// shared across its whole batch of configurations, with a
// devirtualized kernel per scheme — see DESIGN.md §5.
package sweep

import (
	"context"
	"fmt"

	"bpred/internal/checkpoint"
	"bpred/internal/core"
	"bpred/internal/sim"
	"bpred/internal/trace"
)

// The paper's tier range: rear tier 16 counters, front tier 32768.
const (
	DefaultMinBits = 4
	DefaultMaxBits = 15
)

// Options parameterize a sweep.
type Options struct {
	// Scheme selects the predictor family.
	Scheme core.Scheme
	// MinBits/MaxBits bound the counter-budget tiers (log2). Zero
	// values default to the paper's 4..15.
	MinBits, MaxBits int
	// Tiers, when non-empty, selects exactly these counter budgets
	// (log2) instead of the contiguous MinBits..MaxBits range. The
	// resulting Surface spans min(Tiers)..max(Tiers) with the
	// unlisted tiers left empty.
	Tiers []int
	// FirstLevel applies to SchemePAs.
	FirstLevel core.FirstLevel
	// PathBits applies to SchemePath (0 = default).
	PathBits int
	// TAGE applies to SchemeTAGE (zero values = defaults).
	TAGE core.TAGEParams
	// Perceptron applies to SchemePerceptron (zero values = defaults).
	Perceptron core.PerceptronParams
	// ChooserBits applies to SchemeTournament (0 = RowBits).
	ChooserBits int
	// Metered attaches aliasing meters to every configuration.
	Metered bool
	// Sim carries simulation options (warmup, progress counters).
	Sim sim.Options
	// Checkpoint, when non-nil, is the result cache consulted before
	// simulating each cell and updated (and flushed) as cells
	// complete. The store must be bound to this trace and warmup; use
	// CheckpointDir to have Run derive and verify that binding itself.
	Checkpoint *checkpoint.Store
	// CheckpointDir, when non-empty and Checkpoint is nil, enables
	// checkpointing into a file under this directory named after the
	// trace's content digest, so any sweep over the same trace content
	// and warmup — across processes and even across schemes — shares
	// one resumable cache file.
	CheckpointDir string

	// afterTier, when set, runs after each tier completes (tests use
	// it to interrupt a sweep at a deterministic point).
	afterTier func(tableBits int)
}

func (o Options) bounds() (int, int) {
	if len(o.Tiers) > 0 {
		lo, hi := o.Tiers[0], o.Tiers[0]
		for _, n := range o.Tiers[1:] {
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		return lo, hi
	}
	lo, hi := o.MinBits, o.MaxBits
	if lo == 0 && hi == 0 {
		lo, hi = DefaultMinBits, DefaultMaxBits
	}
	return lo, hi
}

// TierList returns the tiers to sweep, in execution order: Tiers when
// set, else MinBits..MaxBits (the paper's 4..15 when both are zero).
func (o Options) TierList() []int {
	if len(o.Tiers) > 0 {
		return o.Tiers
	}
	lo, hi := o.bounds()
	out := make([]int, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}

// Point is one evaluated configuration.
type Point struct {
	Config  core.Config
	Metrics sim.Metrics
}

// Valid reports whether the point holds a real result (grid slots for
// skipped configurations are zero Points).
func (p Point) Valid() bool { return p.Metrics.Branches > 0 }

// Surface is a tier x split grid of results for one scheme over one
// trace: rows of the grid are constant counter budgets (the gray and
// white tiers of the paper's 3-D charts), columns are the row/column
// split, from all-columns (address-indexed, split 0) on the left to
// all-rows (GAg/PAg, split = tier bits) on the right.
type Surface struct {
	Scheme  core.Scheme
	Trace   string
	MinBits int
	MaxBits int
	// points[t][r] is the result for 2^(MinBits+t) counters with
	// 2^r rows.
	points [][]Point
}

// Tiers returns the table-bit values covered, ascending.
func (s *Surface) Tiers() []int {
	out := make([]int, len(s.points))
	for i := range out {
		out[i] = s.MinBits + i
	}
	return out
}

// At returns the point for the given counter budget (log2) and row
// bits. ok is false outside the grid.
func (s *Surface) At(tableBits, rowBits int) (Point, bool) {
	t := tableBits - s.MinBits
	if t < 0 || t >= len(s.points) {
		return Point{}, false
	}
	if rowBits < 0 || rowBits >= len(s.points[t]) {
		return Point{}, false
	}
	p := s.points[t][rowBits]
	return p, p.Valid()
}

// Splits returns all points in one tier, ordered by row bits
// (address-indexed first, single-column last).
func (s *Surface) Splits(tableBits int) []Point {
	t := tableBits - s.MinBits
	if t < 0 || t >= len(s.points) {
		return nil
	}
	return s.points[t]
}

// BestInTier returns the configuration with the lowest misprediction
// rate in the given tier — the blackened bars of Figures 4 and 6. ok
// is false for an empty tier.
func (s *Surface) BestInTier(tableBits int) (Point, bool) {
	best := Point{}
	ok := false
	for _, p := range s.Splits(tableBits) {
		if !p.Valid() {
			continue
		}
		if !ok || p.Metrics.MispredictRate() < best.Metrics.MispredictRate() {
			best = p
			ok = true
		}
	}
	return best, ok
}

// Configs enumerates the sweep's configurations: for each tier n in
// [MinBits, MaxBits], every split 2^r x 2^(n-r). Address-indexed
// sweeps have exactly one configuration per tier (all columns).
func Configs(o Options) []core.Config {
	var out []core.Config
	for _, n := range o.TierList() {
		out = append(out, tierConfigs(o, n)...)
	}
	return out
}

// tierConfigs enumerates one tier's configurations.
func tierConfigs(o Options, n int) []core.Config {
	var out []core.Config
	for r := 0; r <= n; r++ {
		if o.Scheme == core.SchemeAddress && r != 0 {
			continue
		}
		c := core.Config{
			Scheme:     o.Scheme,
			RowBits:    r,
			ColBits:    n - r,
			FirstLevel: o.FirstLevel,
			PathBits:   o.PathBits,
			Metered:    o.Metered,
		}
		switch o.Scheme {
		case core.SchemeTAGE:
			c.TAGE = o.TAGE
		case core.SchemePerceptron:
			c.Perceptron = o.Perceptron
		case core.SchemeTournament:
			c.ChooserBits = o.ChooserBits
		}
		// Address-indexed is the r=0 edge of every family; GAs
		// with 0 rows *is* address-indexed, so keep it: the
		// paper's tiers run from address-indexed to GAg.
		out = append(out, c)
	}
	return out
}

// Run executes the sweep over the trace and assembles the surface.
func Run(o Options, tr *trace.Trace) (*Surface, error) {
	return RunCtx(context.Background(), o, tr)
}

// RunCtx executes the sweep with cancellation and optional
// checkpointing.
//
// Without a checkpoint store, every configuration runs in one
// chunk-shared sim.RunConfigsCtx call (maximal trace-chunk reuse
// across worker batches — DESIGN.md §5); a cancel is honored within
// one chunk of per-worker work and the partial results are discarded.
//
// With a checkpoint store (Checkpoint or CheckpointDir set), the sweep
// runs tier by tier: cached cells are placed without simulation, each
// tier's missing cells run in one chunk-shared call, and completed
// cells — including the completed subset of a tier interrupted
// mid-flight — are added to the store and flushed at every tier
// boundary and on the cancellation path. A canceled sweep therefore
// returns ctx.Err() promptly while keeping everything it finished;
// rerunning the same sweep resumes from the cache and produces a
// Surface byte-identical to an uninterrupted run. Tier-by-tier
// execution trades some cross-tier chunk sharing for that bounded
// loss, which is why it is only active when checkpointing is on.
func RunCtx(ctx context.Context, o Options, tr *trace.Trace) (*Surface, error) {
	lo, hi := o.bounds()
	if lo < 0 || hi > 30 || lo > hi {
		return nil, fmt.Errorf("sweep: bad tier bounds [%d, %d]", lo, hi)
	}
	store := o.Checkpoint
	if store == nil && o.CheckpointDir != "" {
		digest := tr.Digest()
		path := checkpoint.PathFor(o.CheckpointDir, digest, uint64(o.Sim.Warmup))
		var err error
		if store, err = checkpoint.Open(path, digest, uint64(o.Sim.Warmup)); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	s := &Surface{Scheme: o.Scheme, Trace: tr.Name, MinBits: lo, MaxBits: hi}
	s.points = make([][]Point, hi-lo+1)
	for i := range s.points {
		s.points[i] = make([]Point, lo+i+1)
	}

	if store == nil {
		configs := Configs(o)
		ms, err := sim.RunConfigsCtx(ctx, configs, tr, o.Sim)
		if err != nil {
			return nil, err
		}
		o.Sim.Obs.AddCompleted(uint64(len(configs)))
		for i, c := range configs {
			s.points[c.TableBits()-lo][c.RowBits] = Point{Config: c, Metrics: ms[i]}
		}
		return s, nil
	}

	for _, n := range o.TierList() {
		if err := ctx.Err(); err != nil {
			return nil, flushOnCancel(store, err)
		}
		tierDone := o.Sim.Obs.TierTimer()
		var missing []core.Config
		for _, c := range tierConfigs(o, n) {
			if m, ok := store.Lookup(c.Fingerprint()); ok {
				s.points[c.TableBits()-lo][c.RowBits] = Point{Config: c, Metrics: m}
				o.Sim.Obs.AddCached(1)
				continue
			}
			missing = append(missing, c)
		}
		if len(missing) > 0 {
			ms, err := sim.RunConfigsCtx(ctx, missing, tr, o.Sim)
			if err != nil {
				// Keep whatever completed before the cancel: finished
				// worker batches carry final metrics (non-empty Name —
				// sim's partial-result contract).
				if ms != nil {
					for i, c := range missing {
						if ms[i].Name != "" {
							store.Add(c.Fingerprint(), ms[i])
							o.Sim.Obs.AddCompleted(1)
						}
					}
				}
				return nil, flushOnCancel(store, err)
			}
			for i, c := range missing {
				store.Add(c.Fingerprint(), ms[i])
				s.points[c.TableBits()-lo][c.RowBits] = Point{Config: c, Metrics: ms[i]}
			}
			o.Sim.Obs.AddCompleted(uint64(len(missing)))
		}
		if err := store.Flush(); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		tierDone()
		if o.afterTier != nil {
			o.afterTier(n)
		}
	}
	return s, nil
}

// flushOnCancel persists completed cells on the cancellation path; the
// cancellation error wins over a (rare) flush failure, which would
// only cost a re-simulation on resume.
func flushOnCancel(store *checkpoint.Store, cancelErr error) error {
	_ = store.Flush() //bplint:ignore codecerr the cancellation error wins; a lost flush only costs re-simulation on resume
	return cancelErr
}

// Diff computes b - a misprediction-rate differences for every grid
// slot present in both surfaces (the paper's Figures 7 and 8 plot
// gshare-GAs and path-GAs differences; positive values mean a
// predicts better). The result is indexed like Surface.points.
func Diff(a, b *Surface) ([][]float64, error) {
	if a.MinBits != b.MinBits || a.MaxBits != b.MaxBits {
		return nil, fmt.Errorf("sweep: mismatched tier ranges [%d,%d] vs [%d,%d]",
			a.MinBits, a.MaxBits, b.MinBits, b.MaxBits)
	}
	out := make([][]float64, len(a.points))
	for t := range a.points {
		out[t] = make([]float64, len(a.points[t]))
		for r := range a.points[t] {
			pa, oka := a.At(a.MinBits+t, r)
			pb, okb := b.At(b.MinBits+t, r)
			if oka && okb {
				out[t][r] = pb.Metrics.MispredictRate() - pa.Metrics.MispredictRate()
			}
		}
	}
	return out, nil
}

// BestPerTier returns, for each tier, the best point — convenient for
// Table 3 assembly.
func (s *Surface) BestPerTier() []Point {
	var out []Point
	for _, n := range s.Tiers() {
		if p, ok := s.BestInTier(n); ok {
			out = append(out, p)
		}
	}
	return out
}
