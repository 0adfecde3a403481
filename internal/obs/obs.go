// Package obs provides run-level observability for long simulation
// and sweep runs: a set of atomically-updated counters that the
// execution stack (internal/sim chunk loops, internal/sweep tier
// loops) increments in-line, and an expvar-style immutable Snapshot
// that progress renderers and tests consume. Counter updates happen
// only at chunk and configuration boundaries, so instrumentation adds
// zero cost inside the devirtualized kernels (DESIGN.md §5) and a
// single nil check plus two atomic adds per 8192-branch chunk
// otherwise.
//
// A nil *Counters disables instrumentation everywhere; every producer
// guards with a nil check so the uninstrumented paths stay free.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counters accumulates run-level progress. All methods are safe for
// concurrent use; the zero value is ready to use.
type Counters struct {
	branches  atomic.Uint64
	chunks    atomic.Uint64
	completed atomic.Uint64
	cached    atomic.Uint64
	failed    atomic.Uint64
	tiers     atomic.Uint64
	tierNanos atomic.Int64

	// start is set lazily by the first producer touch (or explicitly
	// by Start) and anchors Snapshot.Elapsed. Zero means unanchored,
	// so Reset can rearm it.
	start atomic.Int64

	// tee, set by Tee before the counters are shared, receives a copy
	// of every count recorded here.
	tee *Counters
}

// Tee makes c forward every count it records from now on to dst as
// well, so a producer can keep its own tally while feeding a shared
// live set (a cluster worker tallies a chunk for its completion
// report and counts it into the submitting job's progress as it
// runs). Call it before c is shared; a nil dst forwards nothing.
// Reset is not forwarded, and dst must not tee back to c.
func (c *Counters) Tee(dst *Counters) { c.tee = dst }

// Start anchors the elapsed-time clock; producers also do this
// implicitly on first touch. Only the first call after creation (or
// after Reset) wins.
func (c *Counters) Start() {
	if c == nil {
		return
	}
	if c.start.Load() == 0 {
		c.start.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// Reset zeroes every counter and rearms the elapsed-time anchor, so a
// long-lived process can reuse one Counters (and its published expvar
// name) across runs.
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	c.branches.Store(0)
	c.chunks.Store(0)
	c.completed.Store(0)
	c.cached.Store(0)
	c.failed.Store(0)
	c.tiers.Store(0)
	c.tierNanos.Store(0)
	c.start.Store(0)
}

// AddChunk records one processed chunk of n branches. Called by the
// simulation engine once per (predictor, chunk) pair.
func (c *Counters) AddChunk(n uint64) {
	if c == nil {
		return
	}
	c.Start()
	c.chunks.Add(1)
	c.branches.Add(n)
	c.tee.AddChunk(n)
}

// AddCompleted records n configurations finishing simulation.
func (c *Counters) AddCompleted(n uint64) {
	if c == nil {
		return
	}
	c.Start()
	c.completed.Add(n)
	c.tee.AddCompleted(n)
}

// AddCached records n configurations satisfied from a checkpoint
// without simulation.
func (c *Counters) AddCached(n uint64) {
	if c == nil {
		return
	}
	c.Start()
	c.cached.Add(n)
	c.tee.AddCached(n)
}

// AddFailed records n configurations that failed to build or run.
func (c *Counters) AddFailed(n uint64) {
	if c == nil {
		return
	}
	c.Start()
	c.failed.Add(n)
	c.tee.AddFailed(n)
}

// TierDone records one completed sweep tier and its wall time.
func (c *Counters) TierDone(d time.Duration) {
	if c == nil {
		return
	}
	c.Start()
	c.tiers.Add(1)
	c.tierNanos.Add(int64(d))
	c.tee.TierDone(d)
}

// TierTimer starts a stopwatch for one sweep tier; the returned stop
// function records the tier and its wall time via TierDone. A nil
// receiver returns a working stop function that records nothing.
func (c *Counters) TierTimer() (stop func()) {
	elapsed := Stopwatch()
	return func() { c.TierDone(elapsed()) }
}

// Now returns the current wall-clock time. Simulation packages must
// not read the clock directly — results are a pure function of trace,
// config, and seed, and the detrand analyzer enforces it — so every
// presentation-layer timestamp flows through this single audited
// accessor instead.
func Now() time.Time { return time.Now() }

// Stopwatch starts a wall-clock timer and returns a function yielding
// the elapsed time since the call. Like Now, it exists so that timing
// concerns live in the observability layer rather than in simulation
// code.
func Stopwatch() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// Snapshot is a consistent-enough point-in-time copy of the counters
// (each field is read atomically; the set is not cut atomically, which
// is fine for progress reporting). It marshals to JSON for machine
// consumers.
type Snapshot struct {
	// Branches is the total number of (predictor, branch) simulation
	// events processed, warmup included.
	Branches uint64 `json:"branches"`
	// Chunks is the number of (predictor, chunk) batches processed.
	Chunks uint64 `json:"chunks"`
	// ConfigsCompleted counts configurations fully simulated.
	ConfigsCompleted uint64 `json:"configs_completed"`
	// ConfigsCached counts configurations served from a checkpoint.
	ConfigsCached uint64 `json:"configs_cached"`
	// ConfigsFailed counts configurations that errored.
	ConfigsFailed uint64 `json:"configs_failed"`
	// TiersCompleted counts finished sweep tiers.
	TiersCompleted uint64 `json:"tiers_completed"`
	// TierTime is the cumulative wall time spent in finished tiers.
	TierTime time.Duration `json:"tier_time_ns"`
	// Elapsed is the wall time since the first counter touch.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Merge folds a snapshot's counts into c, so one run's counters can
// be aggregated into a longer-lived set (bpserved merges each job's
// counters into its process-global set at tier boundaries). Elapsed
// is ignored: it derives from the receiver's own start anchor.
func (c *Counters) Merge(s Snapshot) {
	if c == nil {
		return
	}
	c.Start()
	c.branches.Add(s.Branches)
	c.chunks.Add(s.Chunks)
	c.completed.Add(s.ConfigsCompleted)
	c.cached.Add(s.ConfigsCached)
	c.failed.Add(s.ConfigsFailed)
	c.tiers.Add(s.TiersCompleted)
	c.tierNanos.Add(int64(s.TierTime))
	c.tee.Merge(s)
}

// Snapshot returns the current counter values. A nil receiver yields
// a zero Snapshot.
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Branches:         c.branches.Load(),
		Chunks:           c.chunks.Load(),
		ConfigsCompleted: c.completed.Load(),
		ConfigsCached:    c.cached.Load(),
		ConfigsFailed:    c.failed.Load(),
		TiersCompleted:   c.tiers.Load(),
		TierTime:         time.Duration(c.tierNanos.Load()),
	}
	if start := c.start.Load(); start != 0 {
		s.Elapsed = time.Since(time.Unix(0, start))
	}
	return s
}

// Sub returns the counting-field deltas s - prev (Elapsed is carried
// over from s unchanged; it is an instant, not a count). Producers
// that fold a live run into an aggregate use Sub between successive
// snapshots so each increment is merged exactly once.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		Branches:         s.Branches - prev.Branches,
		Chunks:           s.Chunks - prev.Chunks,
		ConfigsCompleted: s.ConfigsCompleted - prev.ConfigsCompleted,
		ConfigsCached:    s.ConfigsCached - prev.ConfigsCached,
		ConfigsFailed:    s.ConfigsFailed - prev.ConfigsFailed,
		TiersCompleted:   s.TiersCompleted - prev.TiersCompleted,
		TierTime:         s.TierTime - prev.TierTime,
		Elapsed:          s.Elapsed,
	}
}

// BranchesPerSecond returns the simulation throughput so far.
func (s Snapshot) BranchesPerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Branches) / s.Elapsed.Seconds()
}

// String renders a one-line progress summary suitable for a live
// status display.
func (s Snapshot) String() string {
	return fmt.Sprintf("%d branches in %d chunks | configs: %d run, %d cached, %d failed | tiers: %d (%s) | %.1fM branches/s | %s elapsed",
		s.Branches, s.Chunks,
		s.ConfigsCompleted, s.ConfigsCached, s.ConfigsFailed,
		s.TiersCompleted, s.TierTime.Round(time.Millisecond),
		s.BranchesPerSecond()/1e6,
		s.Elapsed.Round(time.Millisecond))
}

// published maps expvar names this package has registered to the
// rebindable slot the expvar closure reads through. expvar panics on
// duplicate registration and offers no unregister, so each name is
// registered exactly once and later Publish calls swap the slot.
var (
	publishMu sync.Mutex
	published = make(map[string]*atomic.Pointer[Counters])
)

// Publish registers the counters with the process-wide expvar registry
// under the given name, so an importing server exposes them on
// /debug/vars. Publishing a name this package already registered is
// idempotent: the name is rebound to c (a fresh run's counters replace
// the stale ones) instead of panicking in expvar. A name registered
// with expvar by other code is left untouched.
func (c *Counters) Publish(name string) {
	if c == nil {
		return
	}
	publishMu.Lock()
	defer publishMu.Unlock()
	slot, ok := published[name]
	if !ok {
		if expvar.Get(name) != nil {
			return // foreign registration owns the name
		}
		slot = new(atomic.Pointer[Counters])
		published[name] = slot
		expvar.Publish(name, expvar.Func(func() any { return slot.Load().Snapshot() }))
	}
	slot.Store(c)
}

// NamedSnapshot pairs a published counter set's name with its
// point-in-time snapshot.
type NamedSnapshot struct {
	Name string `json:"name"`
	Snapshot
}

// Published returns a stable, name-sorted snapshot of every counter
// set this package has registered via Publish. Renderers that emit
// all published counters — the bpserved /metrics endpoint — need
// deterministic ordering; iterating the registry map directly would
// be map-random.
func Published() []NamedSnapshot {
	publishMu.Lock()
	defer publishMu.Unlock()
	out := make([]NamedSnapshot, 0, len(published))
	for name, slot := range published {
		out = append(out, NamedSnapshot{Name: name, Snapshot: slot.Load().Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MarshalJSON lets a *Counters itself serialize as its snapshot.
func (c *Counters) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Snapshot())
}
