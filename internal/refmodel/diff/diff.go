// Package diff is the differential-verification harness between the
// simulation engine (internal/sim, including its batched monomorphic
// kernels) and the independent reference model (internal/refmodel).
// It replays traces through both sides and demands bit-identical
// results on every metric the paper reports: scored branch and
// mispredict counts, the §3 aliasing taxonomy, and the §5 first-level
// miss rate.
//
// The harness has three levels of resolution:
//
//   - Compare runs the batched engine and the oracle over a whole
//     trace and diffs the final tallies — the cheap always-on check.
//   - Lockstep steps the generic (interface-dispatched) predictor and
//     the oracle branch by branch and reports the first index where
//     their predictions part, with full state dumps from both sides.
//   - BisectBatched recovers a first-divergence index for the batched
//     kernels, whose per-branch state is not observable, by prefix
//     bisection over whole-prefix Compare runs.
//
// cmd/bpdiff is the command-line front end.
package diff

import (
	"fmt"
	"strings"

	"bpred/internal/core"
	"bpred/internal/history"
	"bpred/internal/refmodel"
	"bpred/internal/rng"
	"bpred/internal/sim"
	"bpred/internal/trace"
)

// RefConfig maps an engine configuration onto its reference-model
// equivalent. The mapping is the differential contract: every engine
// scheme must have exactly one oracle counterpart.
func RefConfig(c core.Config) (refmodel.Config, error) {
	if err := c.Validate(); err != nil {
		return refmodel.Config{}, err
	}
	rc := refmodel.Config{
		HistBits:    c.RowBits,
		ColBits:     c.ColBits,
		CounterBits: c.CounterBits,
	}
	switch c.Scheme {
	case core.SchemeAddress:
		rc.Scheme = refmodel.Bimodal
		rc.HistBits = 0
	case core.SchemeGAs:
		rc.Scheme = refmodel.Global
	case core.SchemeGShare:
		rc.Scheme = refmodel.GShare
	case core.SchemePath:
		rc.Scheme = refmodel.Path
		rc.PathBits = c.PathBits
		if rc.PathBits == 0 {
			rc.PathBits = core.DefaultPathBits
		}
	case core.SchemePAs:
		rc.Scheme = refmodel.PerAddress
		rc.Entries = c.FirstLevel.Entries
		rc.Ways = c.FirstLevel.Ways
		switch c.FirstLevel.Kind {
		case core.FirstLevelPerfect:
			rc.FirstLevel = refmodel.Perfect
		case core.FirstLevelSetAssoc:
			rc.FirstLevel = refmodel.Tagged
		case core.FirstLevelUntagged:
			rc.FirstLevel = refmodel.Untagged
		default:
			return refmodel.Config{}, fmt.Errorf("diff: unmapped first-level kind %d", c.FirstLevel.Kind)
		}
		switch c.FirstLevel.Policy {
		case history.PrefixReset:
			rc.Reset = refmodel.ResetPrefix
		case history.ZeroReset:
			rc.Reset = refmodel.ResetZeros
		case history.OnesReset:
			rc.Reset = refmodel.ResetOnes
		case history.InheritStale:
			rc.Reset = refmodel.ResetInherit
		default:
			return refmodel.Config{}, fmt.Errorf("diff: unmapped reset policy %d", c.FirstLevel.Policy)
		}
	case core.SchemeTAGE:
		// The oracle takes fully explicit knobs; normalize here so a
		// zero-valued engine config maps onto its effective geometry.
		tg := c.TAGE.Normalized()
		rc.Scheme = refmodel.TAGE
		rc.TAGETables = tg.Tables
		rc.TAGEMinHist = tg.MinHist
		rc.TAGEMaxHist = tg.MaxHist
		rc.TAGETagBits = tg.TagBits
		rc.TAGEUPeriod = tg.UPeriod // engine -1 (aging off) maps to oracle <= 0
	case core.SchemePerceptron:
		pw := c.Perceptron.Normalized(c.RowBits)
		rc.Scheme = refmodel.Perceptron
		rc.WeightBits = pw.WeightBits
		rc.Threshold = pw.Threshold
	case core.SchemeTournament:
		rc.Scheme = refmodel.Tournament
		rc.ChooserBits = c.EffectiveChooserBits()
	default:
		return refmodel.Config{}, fmt.Errorf("diff: unmapped scheme %v", c.Scheme)
	}
	return rc, nil
}

// Scored is the oracle's warmup-aware score: the engine trains (and
// meters) warmup branches without scoring them, so the harness applies
// the same policy to the oracle's per-step predictions.
type Scored struct {
	Branches    uint64
	Mispredicts uint64
}

// ReplayOracle steps every branch through the model in trace order,
// scoring only branches at index >= warmup. The model's Totals keep
// counting everything, matching the engine's meters.
func ReplayOracle(m *refmodel.Model, branches []trace.Branch, warmup int) Scored {
	var s Scored
	for i, b := range branches {
		st := m.Step(b)
		if i < warmup {
			continue
		}
		s.Branches++
		if st.Predicted != b.Taken {
			s.Mispredicts++
		}
	}
	return s
}

// Result is one whole-trace comparison between the batched engine and
// the oracle.
type Result struct {
	Config core.Config
	// Engine is the batched-kernel run's metrics.
	Engine sim.Metrics
	// Oracle and OracleScored are the reference model's cumulative
	// totals and warmup-aware score over the same trace.
	Oracle       refmodel.Totals
	OracleScored Scored
	// Mismatches lists every metric that differed, empty when the two
	// sides are bit-identical.
	Mismatches []string
}

// Equal reports whether every compared metric matched.
func (r Result) Equal() bool { return len(r.Mismatches) == 0 }

// String renders the comparison for reports.
func (r Result) String() string {
	if r.Equal() {
		return fmt.Sprintf("%s: engine == oracle (%d branches, %d mispredicts)",
			r.Engine.Name, r.Engine.Branches, r.Engine.Mispredicts)
	}
	return fmt.Sprintf("%s: DIVERGED on %s", r.Engine.Name, strings.Join(r.Mismatches, ", "))
}

// Compare runs cfg over the trace through the batched engine and the
// reference model and diffs every paper metric. Scored counts are
// always compared; aliasing statistics only when the configuration is
// metered (an unmetered engine predictor reports zeros); the
// first-level miss rate always (both sides report 0 for schemes
// without a finite first level). opt.Chunk exercises the engine's
// chunking; the oracle has no chunks by construction.
func Compare(cfg core.Config, tr *trace.Trace, opt sim.Options) (Result, error) {
	rc, err := RefConfig(cfg)
	if err != nil {
		return Result{}, err
	}
	m, err := refmodel.New(rc)
	if err != nil {
		return Result{}, fmt.Errorf("diff: building oracle: %w", err)
	}
	p, err := cfg.Build()
	if err != nil {
		return Result{}, fmt.Errorf("diff: building engine predictor: %w", err)
	}
	res := Result{Config: cfg}
	res.Engine = sim.RunTrace(p, tr, opt)
	warm := opt.Warmup
	if warm < 0 {
		warm = 0
	}
	res.OracleScored = ReplayOracle(m, tr.Branches, warm)
	res.Oracle = m.Totals()

	add := func(name string, engine, oracle uint64) {
		if engine != oracle {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("%s (engine %d, oracle %d)", name, engine, oracle))
		}
	}
	add("branches", res.Engine.Branches, res.OracleScored.Branches)
	add("mispredicts", res.Engine.Mispredicts, res.OracleScored.Mispredicts)
	if cfg.Metered {
		add("alias accesses", res.Engine.Alias.Accesses, res.Oracle.Accesses)
		add("alias conflicts", res.Engine.Alias.Conflicts, res.Oracle.Conflicts)
		add("alias all-ones", res.Engine.Alias.AllOnes, res.Oracle.AllOnes)
		add("alias agreeing", res.Engine.Alias.Agreeing, res.Oracle.Agreeing)
		add("alias destructive", res.Engine.Alias.Destructive, res.Oracle.Destructive)
		add("tag agree", res.Engine.Alias.TagAgree, res.Oracle.TagAgree)
		add("tag disagree", res.Engine.Alias.TagDisagree, res.Oracle.TagDisagree)
		add("useful victims", res.Engine.Alias.UsefulVictims, res.Oracle.UsefulVictims)
		add("overrides", res.Engine.Alias.Overrides, res.Oracle.Overrides)
		add("override correct", res.Engine.Alias.OverrideCorrect, res.Oracle.OverrideCorrect)
	}
	if res.Engine.FirstLevelMissRate != res.Oracle.FirstLevelMissRate() {
		res.Mismatches = append(res.Mismatches,
			fmt.Sprintf("first-level miss rate (engine %g, oracle %g)",
				res.Engine.FirstLevelMissRate, res.Oracle.FirstLevelMissRate()))
	}
	return res, nil
}

// Divergence describes the first branch where two sides disagreed.
type Divergence struct {
	// Index is the 0-based position in the branch stream.
	Index int
	// Branch is the disagreeing branch.
	Branch trace.Branch
	// EnginePredicted and OraclePredicted are the two predictions.
	EnginePredicted, OraclePredicted bool
	// EngineState and OracleState are full predictor-state dumps taken
	// at the divergence (after both sides consumed the branch).
	EngineState, OracleState string
}

// String renders the divergence report.
func (d *Divergence) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "first divergence at branch %d: pc=%#x target=%#x taken=%t\n",
		d.Index, d.Branch.PC, d.Branch.Target, d.Branch.Taken)
	fmt.Fprintf(&sb, "  engine predicted %t, oracle predicted %t\n",
		d.EnginePredicted, d.OraclePredicted)
	sb.WriteString("engine state:\n")
	sb.WriteString(indent(d.EngineState))
	sb.WriteString("oracle state:\n")
	sb.WriteString(indent(d.OracleState))
	return sb.String()
}

func indent(s string) string {
	var sb strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		sb.WriteString("  ")
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Lockstep steps predictor and oracle branch by branch and returns
// the first index where their predictions disagree, with state dumps
// from both sides, or nil if they agree on every branch. maxDump caps
// the per-side counter lines in the dumps (0 means uncapped).
func Lockstep(p core.Predictor, m *refmodel.Model, branches []trace.Branch, maxDump int) *Divergence {
	for i, b := range branches {
		enginePred := p.Predict(b)
		p.Update(b)
		st := m.Step(b)
		if enginePred == st.Predicted {
			continue
		}
		return &Divergence{
			Index:           i,
			Branch:          b,
			EnginePredicted: enginePred,
			OraclePredicted: st.Predicted,
			EngineState:     EngineDump(p, maxDump),
			OracleState:     m.DumpState(maxDump),
		}
	}
	return nil
}

// LockstepConfig is Lockstep over freshly built sides for cfg.
func LockstepConfig(cfg core.Config, tr *trace.Trace, maxDump int) (*Divergence, error) {
	rc, err := RefConfig(cfg)
	if err != nil {
		return nil, err
	}
	m, err := refmodel.New(rc)
	if err != nil {
		return nil, fmt.Errorf("diff: building oracle: %w", err)
	}
	p, err := cfg.Build()
	if err != nil {
		return nil, fmt.Errorf("diff: building engine predictor: %w", err)
	}
	return Lockstep(p, m, tr.Branches, maxDump), nil
}

// EngineDump renders an engine predictor's state for divergence
// reports: name, aliasing totals, and every counter away from its
// initial value, capped at maxEntries lines (0 means uncapped).
func EngineDump(p core.Predictor, maxEntries int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", p.Name())
	tl, ok := p.(*core.TwoLevel)
	if !ok {
		fmt.Fprintf(&sb, "  (opaque predictor %T: no state dump)\n", p)
		return sb.String()
	}
	if fr, ok := p.(core.FirstLevelReporter); ok {
		if mr := fr.FirstLevelMissRate(); mr != 0 {
			fmt.Fprintf(&sb, "  first-level miss rate: %g\n", mr)
		}
	}
	tab := tl.Table()
	state, _ := tab.Raw()
	init := uint8(1) << (tab.CounterBits() - 1) // weakly taken
	cols := tab.Cols()
	away := 0
	for _, s := range state {
		if s != init {
			away++
		}
	}
	fmt.Fprintf(&sb, "  counters away from initial state: %d\n", away)
	printed := 0
	for idx, s := range state {
		if s == init {
			continue
		}
		if maxEntries > 0 && printed >= maxEntries {
			fmt.Fprintf(&sb, "  ... %d more\n", away-printed)
			break
		}
		fmt.Fprintf(&sb, "  [row %d, col %d] = %d\n", idx/cols, idx%cols, s)
		printed++
	}
	return sb.String()
}

// BisectBatched finds the shortest trace prefix on which the batched
// engine's tallies and the oracle's disagree and returns the index of
// that prefix's last branch. It exists for divergences that Compare
// reports but Lockstep cannot reproduce — the generic path agrees
// with the oracle, so the batched kernel is the suspect, and kernels
// expose no per-branch state to step. Bisection re-runs whole
// prefixes, so it costs O(n log n) branch simulations.
//
// ok is false when the full trace does not diverge. The returned
// index marks a minimal failing prefix (bad(index+1) && !bad(index));
// if tallies re-converge later in the trace, it is a — not
// necessarily the only — first point of disagreement.
func BisectBatched(cfg core.Config, tr *trace.Trace, opt sim.Options) (int, bool, error) {
	bad := func(n int) (bool, error) {
		sub := &trace.Trace{Name: tr.Name, Instructions: tr.Instructions, Branches: tr.Branches[:n]}
		res, err := Compare(cfg, sub, opt)
		if err != nil {
			return false, err
		}
		return !res.Equal(), nil
	}
	return bisectPrefix(len(tr.Branches), bad)
}

// bisectPrefix binary-searches for the smallest prefix length on
// which bad reports true, returning the index of that prefix's last
// branch. ok is false when bad(n) is false for the whole input.
func bisectPrefix(n int, bad func(int) (bool, error)) (int, bool, error) {
	full, err := bad(n)
	if err != nil {
		return 0, false, err
	}
	if !full {
		return 0, false, nil
	}
	lo, hi := 0, n // invariant: !bad(lo), bad(hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		b, err := bad(mid)
		if err != nil {
			return 0, false, err
		}
		if b {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi - 1, true, nil
}

// SynthTrace deterministically generates a synthetic trace shaped
// like the harness's adversarial inputs: a small hot set of branch
// sites (forcing second-level aliasing and first-level evictions) with
// per-site bias, loop backedges, and occasional jumps to fresh address
// regions. Identical (seed, n) always yields the identical trace.
func SynthTrace(seed uint64, n int) *trace.Trace {
	r := rng.NewXoshiro256(seed)
	sites := 16 + r.Intn(241) // 16..256 static branches
	pcs := make([]uint64, sites)
	bias := make([]float64, sites)
	for i := range pcs {
		pcs[i] = uint64(r.Intn(1<<18)) << 2 // word-aligned 20-bit PCs
		bias[i] = r.Float64()
	}
	t := &trace.Trace{
		Name:         fmt.Sprintf("synth-%x-%d", seed, n),
		Instructions: uint64(n) * 5,
		Branches:     make([]trace.Branch, 0, n),
	}
	site := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.1) {
			site = r.Intn(sites) // jump to a fresh region
		} else {
			site = (site + 1) % sites
		}
		pc := pcs[site]
		taken := r.Bool(bias[site])
		target := pc + 8 + uint64(r.Intn(64))*4
		if r.Bool(0.4) { // loop backedge
			target = pc - uint64(r.Intn(32))*4
		}
		t.Branches = append(t.Branches, trace.Branch{PC: pc, Target: target, Taken: taken})
	}
	return t
}

// Battery returns a representative configuration spread covering
// every scheme family, first-level realization, reset policy, and a
// sample of counter widths — the set the smoke tests and cmd/bpdiff
// -battery replay.
func Battery(metered bool) []core.Config {
	setAssoc := func(entries, ways int, pol history.ResetPolicy) core.FirstLevel {
		return core.FirstLevel{Kind: core.FirstLevelSetAssoc, Entries: entries, Ways: ways, Policy: pol}
	}
	cfgs := []core.Config{
		{Scheme: core.SchemeAddress, ColBits: 6},
		{Scheme: core.SchemeGAs, RowBits: 6},
		{Scheme: core.SchemeGAs, RowBits: 4, ColBits: 2},
		{Scheme: core.SchemeGAs, ColBits: 3}, // degenerate 0-bit history
		{Scheme: core.SchemeGShare, RowBits: 6, ColBits: 2},
		{Scheme: core.SchemeGShare, RowBits: 4, ColBits: 2, CounterBits: 1},
		{Scheme: core.SchemePath, RowBits: 5, ColBits: 2},
		{Scheme: core.SchemePath, RowBits: 6, PathBits: 3},
		{Scheme: core.SchemePAs, RowBits: 5, FirstLevel: core.FirstLevel{Kind: core.FirstLevelPerfect}},
		{Scheme: core.SchemePAs, RowBits: 4, ColBits: 2, FirstLevel: core.FirstLevel{Kind: core.FirstLevelPerfect}},
		{Scheme: core.SchemePAs, RowBits: 6, ColBits: 2, FirstLevel: setAssoc(64, 4, history.PrefixReset)},
		{Scheme: core.SchemePAs, RowBits: 4, ColBits: 1, FirstLevel: setAssoc(16, 1, history.ZeroReset)},
		{Scheme: core.SchemePAs, RowBits: 4, ColBits: 1, FirstLevel: setAssoc(32, 2, history.OnesReset)},
		{Scheme: core.SchemePAs, RowBits: 5, ColBits: 1, FirstLevel: setAssoc(16, 4, history.InheritStale)},
		{Scheme: core.SchemePAs, RowBits: 4, ColBits: 2, FirstLevel: core.FirstLevel{Kind: core.FirstLevelUntagged, Entries: 32}},
		{Scheme: core.SchemeGAs, RowBits: 4, ColBits: 2, CounterBits: 3},
		{Scheme: core.SchemeTAGE, RowBits: 7, ColBits: 8},
		// Small geometry, short aging period: allocation pressure,
		// victimization, and useful-bit halving all inside a short
		// trace; MaxHist not a power-of-two multiple of MinHist.
		{Scheme: core.SchemeTAGE, RowBits: 4, ColBits: 5,
			TAGE: core.TAGEParams{Tables: 6, MinHist: 3, MaxHist: 40, TagBits: 5, UPeriod: 256}},
		{Scheme: core.SchemeTAGE, RowBits: 3, ColBits: 4,
			TAGE: core.TAGEParams{Tables: 2, MinHist: 1, MaxHist: 64, TagBits: 4, UPeriod: -1}},
		{Scheme: core.SchemePerceptron, RowBits: 10, ColBits: 6},
		{Scheme: core.SchemePerceptron, RowBits: 5, ColBits: 3,
			Perceptron: core.PerceptronParams{WeightBits: 4, Threshold: 6}},
		{Scheme: core.SchemeTournament, RowBits: 7, ColBits: 6},
		{Scheme: core.SchemeTournament, RowBits: 5, ColBits: 4, ChooserBits: 3},
	}
	for i := range cfgs {
		cfgs[i].Metered = metered
	}
	return cfgs
}
