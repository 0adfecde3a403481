// Package sim is the trace-driven simulation engine: it runs
// predictors over branch traces, collects metrics, and fans a single
// trace out to many configurations in parallel (one decoded trace,
// many small predictors — DESIGN.md design decision 1).
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/trace"
)

// Metrics summarizes one predictor's run over one trace.
type Metrics struct {
	// Name is the predictor's configuration-qualified name.
	Name string
	// Branches is the number of predicted branches (after warmup).
	Branches uint64
	// Mispredicts is the number of wrong predictions (after warmup).
	Mispredicts uint64
	// Alias carries second-level aliasing statistics when the
	// predictor was metered.
	Alias core.AliasStats
	// FirstLevelMissRate is the PAs first-level conflict rate (0 for
	// other schemes).
	FirstLevelMissRate float64
}

// MispredictRate returns Mispredicts/Branches, the paper's figure of
// merit.
func (m Metrics) MispredictRate() float64 {
	if m.Branches == 0 {
		return 0
	}
	return float64(m.Mispredicts) / float64(m.Branches)
}

// String renders a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("%s: %d/%d mispredicted (%.2f%%)",
		m.Name, m.Mispredicts, m.Branches, 100*m.MispredictRate())
}

// Options control a simulation run.
type Options struct {
	// Warmup is the number of leading branches that train the
	// predictor without being scored. The paper scores whole traces
	// (cold-start effects wash out over 10^7-10^8 branches); scaled
	// traces benefit from a short warmup. Zero scores everything.
	Warmup int
	// Chunk overrides the branches-per-chunk granularity of the
	// batched fast path (0 means the L2-sized default). Exposed
	// mainly so tests can exercise chunk-boundary behavior.
	Chunk int
	// Obs, when non-nil, receives run-level progress counters
	// (branches, chunks) updated at chunk boundaries. Nil disables
	// instrumentation at the cost of one nil check per chunk.
	Obs *obs.Counters
}

// Run drives one predictor over a branch source with the generic
// interface-dispatched loop. It is the reference implementation the
// batched kernels are validated against (kernel_test.go) and the
// guaranteed-compatible path for third-party Source and Predictor
// implementations; hot callers should prefer RunBatched or the
// trace-level entry points, which select monomorphic kernels.
func Run(p core.Predictor, src trace.Source, opt Options) Metrics {
	m := Metrics{Name: p.Name()}
	warm := opt.Warmup
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		pred := p.Predict(b)
		p.Update(b)
		if warm > 0 {
			warm--
			continue
		}
		m.Branches++
		if pred != b.Taken {
			m.Mispredicts++
		}
	}
	finishMetrics(&m, p)
	return m
}

// RunCtx is Run with cancellation checked every chunk's worth of
// branches (the same cancel latency bound as the batched entry
// points). On cancellation it returns the partial tally and ctx.Err().
func RunCtx(ctx context.Context, p core.Predictor, src trace.Source, opt Options) (Metrics, error) {
	m := Metrics{Name: p.Name()}
	warm := opt.Warmup
	step := chunkLen(opt)
	done := ctx.Done()
	for n := 0; ; n++ {
		if done != nil && n%step == 0 {
			select {
			case <-done:
				finishMetrics(&m, p)
				return m, ctx.Err()
			default:
			}
		}
		b, ok := src.Next()
		if !ok {
			break
		}
		pred := p.Predict(b)
		p.Update(b)
		if warm > 0 {
			warm--
			continue
		}
		m.Branches++
		if pred != b.Taken {
			m.Mispredicts++
		}
	}
	finishMetrics(&m, p)
	return m, nil
}

// finishMetrics attaches the optional reporter epilogues to m.
func finishMetrics(m *Metrics, p core.Predictor) {
	if ar, ok := p.(core.AliasReporter); ok {
		m.Alias = ar.AliasStats()
	}
	if fr, ok := p.(core.FirstLevelReporter); ok {
		m.FirstLevelMissRate = fr.FirstLevelMissRate()
	}
}

// RunBatched drives one predictor over a source through the batched
// fast path: a monomorphic kernel when the predictor is a known
// scheme, the generic chunk loop otherwise. Results are bit-identical
// to Run.
func RunBatched(p core.Predictor, src trace.Source, opt Options) Metrics {
	m, _ := RunBatchedCtx(context.Background(), p, src, opt)
	return m
}

// RunBatchedCtx is RunBatched with cancellation: ctx is checked once
// per chunk, so a cancel is honored within one chunk of work (zero
// cost inside the kernels; with a background context the check
// compiles to a nil comparison). On cancellation it returns the
// metrics accumulated so far — a partial tally over the branches fed
// before the cancel — together with ctx.Err().
func RunBatchedCtx(ctx context.Context, p core.Predictor, src trace.Source, opt Options) (Metrics, error) {
	bs := trace.AsBatch(src)
	r := newRunner(p, opt)
	buf := make([]trace.Branch, chunkLen(opt))
	done := ctx.Done()
	for {
		if done != nil {
			select {
			case <-done:
				return r.finish(), ctx.Err()
			default:
			}
		}
		chunk := bs.NextBatch(buf)
		if len(chunk) == 0 {
			break
		}
		r.feed(chunk)
	}
	return r.finish(), nil
}

// RunTrace drives one predictor over an in-memory trace on the
// batched fast path (chunks are zero-copy windows into the trace).
func RunTrace(p core.Predictor, t *trace.Trace, opt Options) Metrics {
	m, _ := RunTraceCtx(context.Background(), p, t, opt)
	return m
}

// RunTraceCtx is RunTrace with cancellation, under the same
// chunk-boundary contract as RunBatchedCtx: on cancellation the
// returned Metrics cover the branches processed so far and the error
// is ctx.Err().
func RunTraceCtx(ctx context.Context, p core.Predictor, t *trace.Trace, opt Options) (Metrics, error) {
	r := newRunner(p, opt)
	step := chunkLen(opt)
	done := ctx.Done()
	branches := t.Branches
	for off := 0; off < len(branches); off += step {
		if done != nil {
			select {
			case <-done:
				return r.finish(), ctx.Err()
			default:
			}
		}
		end := off + step
		if end > len(branches) {
			end = len(branches)
		}
		r.feed(branches[off:end])
	}
	return r.finish(), nil
}

// RunConfigs builds every configuration and runs each over the trace,
// in parallel across GOMAXPROCS workers. Results are returned in
// input order. Invalid configurations produce an error.
func RunConfigs(configs []core.Config, t *trace.Trace, opt Options) ([]Metrics, error) {
	return RunConfigsCtx(context.Background(), configs, t, opt)
}

// RunConfigsCtx is RunConfigs with cancellation. It validates every
// configuration before any worker starts, failing on the first
// invalid one. Each worker then builds the predictors of its own
// strided partition, so the tables and per-branch state a core writes
// on every branch were allocated by that core and share no cache line
// with another worker's (DESIGN.md §5, per-worker predictor memory).
// The partial-result contract is RunPredictorsCtx's: on cancellation
// the returned error is ctx.Err() and the metrics slice holds final
// values for every configuration whose partition completed before the
// cancel (recognizable by a non-empty Name) and zero Metrics for the
// rest.
func RunConfigsCtx(ctx context.Context, configs []core.Config, t *trace.Trace, opt Options) ([]Metrics, error) {
	if err := validateConfigs(configs, opt); err != nil {
		return nil, err
	}
	return runPartitions(ctx, len(configs), buildConfig(configs), t.Branches, opt)
}

// validateConfigs checks every configuration, failing fast on the
// first invalid one, so that no later Build of the batch can fail.
func validateConfigs(configs []core.Config, opt Options) error {
	for i, c := range configs {
		if err := c.Validate(); err != nil {
			opt.Obs.AddFailed(1)
			return fmt.Errorf("sim: config %d: %w", i, err)
		}
	}
	return nil
}

// buildConfig returns the predictor builder of a validated batch.
func buildConfig(configs []core.Config) func(int) core.Predictor {
	return func(i int) core.Predictor { return configs[i].MustBuild() }
}

// RunPredictors runs pre-built predictors over the trace in parallel.
// Each predictor must be independent; they share only the read-only
// trace.
//
// Execution is chunk-shared: predictors are partitioned into one
// batch per worker, and each worker streams the trace in L2-sized
// chunks, replaying every resident chunk through all of its batch's
// predictors before moving on. One hot chunk thereby feeds many small
// predictors (DESIGN.md design decision 1 taken to the cache level)
// instead of every predictor streaming the full trace from DRAM.
func RunPredictors(preds []core.Predictor, t *trace.Trace, opt Options) []Metrics {
	out, _ := RunPredictorsCtx(context.Background(), preds, t, opt)
	return out
}

// RunPredictorsCtx is RunPredictors with cancellation. Every worker
// checks ctx once per chunk, so after a cancel the call returns within
// one chunk of per-worker work and leaves no goroutines behind
// (workers exit through the same WaitGroup as a normal run).
//
// The predictors' memory placement is the caller's: predictors built
// back to back on one goroutine sit side by side in memory, and when
// they run on different workers, both cores write the cache lines
// they share on every branch. RunConfigsCtx, whose workers build
// their own predictors, avoids that.
//
// Partial-result contract: on cancellation the error is ctx.Err() and
// the returned slice is still len(preds) long; entries for predictors
// whose worker batch ran to completion before the cancel hold their
// final Metrics (recognizable by a non-empty Name — finish always
// stamps one), while predictors interrupted mid-stream are left as
// zero Metrics. Chunk-shared execution advances a worker's whole batch
// in lockstep, so a batch is either wholly complete or wholly absent.
func RunPredictorsCtx(ctx context.Context, preds []core.Predictor, t *trace.Trace, opt Options) ([]Metrics, error) {
	return runPartitions(ctx, len(preds), func(i int) core.Predictor { return preds[i] }, t.Branches, opt)
}

// runPartitions runs predictors 0..n-1, made by pred, over branches:
// one goroutine per strided partition (the caller's own goroutine
// runs partition 0), each building its partition before it runs it.
// Every partition checks ctx at each chunk boundary (a background
// context costs one nil comparison per chunk) and leaves its entries
// zero when canceled mid-stream.
func runPartitions(ctx context.Context, n int, pred func(int) core.Predictor, branches []trace.Branch, opt Options) ([]Metrics, error) {
	out := make([]Metrics, n)
	step := chunkLen(opt)
	done := ctx.Done()
	run := func(p *partition) {
		p.build(n, pred, opt)
		for off := 0; off < len(branches); off += step {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			p.feed(branches[off:min(off+step, len(branches))])
		}
		p.finish(out)
	}
	parts := partitions(n)
	var wg sync.WaitGroup
	for w := 1; w < len(parts); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(&parts[w])
		}()
	}
	if len(parts) > 0 {
		run(&parts[0])
	}
	wg.Wait()
	return out, ctx.Err()
}

// partition is one worker's strided share of a batch of n predictors:
// w, w+workers, ..., so that sweeps enumerated small-to-large spread
// their heavy configurations across workers. The goroutine that runs
// a partition builds its runners (and, for a config batch, its
// predictors), so every byte it writes per branch comes from that
// goroutine's allocations; rs itself is written once, at build.
type partition struct {
	w, workers int
	rs         []runner
}

// partitions returns one partition per worker: GOMAXPROCS of them, or
// n when that is fewer.
func partitions(n int) []partition {
	parts := make([]partition, min(runtime.GOMAXPROCS(0), n))
	for w := range parts {
		parts[w] = partition{w: w, workers: len(parts)}
	}
	return parts
}

// build makes a runner over pred(i) for each of the partition's
// indices below n.
func (p *partition) build(n int, pred func(int) core.Predictor, opt Options) {
	p.rs = make([]runner, 0, (n-p.w+p.workers-1)/p.workers)
	for i := p.w; i < n; i += p.workers {
		p.rs = append(p.rs, newRunner(pred(i), opt))
	}
}

// feed replays one chunk through every runner of the partition.
func (p *partition) feed(chunk []trace.Branch) {
	for i := range p.rs {
		p.rs[i].feed(chunk)
	}
}

// finish writes each runner's final Metrics to its index in out.
func (p *partition) finish(out []Metrics) {
	for j := range p.rs {
		out[p.w+j*p.workers] = p.rs[j].finish()
	}
}
