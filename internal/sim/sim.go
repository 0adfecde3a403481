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

// RunConfigsCtx is RunConfigs with cancellation. The partial-result
// contract is RunPredictorsCtx's: on cancellation the returned error
// is ctx.Err() and the metrics slice holds final values for every
// configuration whose worker batch completed before the cancel
// (recognizable by a non-empty Name) and zero Metrics for the rest.
func RunConfigsCtx(ctx context.Context, configs []core.Config, t *trace.Trace, opt Options) ([]Metrics, error) {
	preds, err := buildConfigs(configs, opt)
	if err != nil {
		return nil, err
	}
	return RunPredictorsCtx(ctx, preds, t, opt)
}

// buildConfigs builds every configuration, failing fast on the first
// invalid one.
func buildConfigs(configs []core.Config, opt Options) ([]core.Predictor, error) {
	preds := make([]core.Predictor, len(configs))
	for i, c := range configs {
		p, err := c.Build()
		if err != nil {
			opt.Obs.AddFailed(1)
			return nil, fmt.Errorf("sim: config %d: %w", i, err)
		}
		preds[i] = p
	}
	return preds, nil
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
// Partial-result contract: on cancellation the error is ctx.Err() and
// the returned slice is still len(preds) long; entries for predictors
// whose worker batch ran to completion before the cancel hold their
// final Metrics (recognizable by a non-empty Name — finish always
// stamps one), while predictors interrupted mid-stream are left as
// zero Metrics. Chunk-shared execution advances a worker's whole batch
// in lockstep, so a batch is either wholly complete or wholly absent.
func RunPredictorsCtx(ctx context.Context, preds []core.Predictor, t *trace.Trace, opt Options) ([]Metrics, error) {
	out := make([]Metrics, len(preds))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(preds) {
		workers = len(preds)
	}
	if workers <= 1 {
		if !runBatch(ctx, preds, t.Branches, opt, out) {
			return out, ctx.Err()
		}
		return out, nil
	}
	// Strided assignment: worker w simulates predictors w, w+workers,
	// ... so that sweeps enumerated small-to-large spread their heavy
	// configurations across workers.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		batch := make([]core.Predictor, 0, (len(preds)+workers-1)/workers)
		idx := make([]int, 0, cap(batch))
		for i := w; i < len(preds); i += workers {
			batch = append(batch, preds[i])
			idx = append(idx, i)
		}
		wg.Add(1)
		go func(batch []core.Predictor, idx []int) {
			defer wg.Done()
			res := make([]Metrics, len(batch))
			if !runBatch(ctx, batch, t.Branches, opt, res) {
				return // canceled: leave this batch's entries zero
			}
			for j, i := range idx {
				out[i] = res[j]
			}
		}(batch, idx)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// runBatch simulates a batch of predictors over one branch stream,
// chunk by chunk, writing out[i] for preds[i]. It checks ctx at every
// chunk boundary and reports false without touching out when the
// context is canceled mid-stream (a background context costs one nil
// comparison per chunk).
func runBatch(ctx context.Context, preds []core.Predictor, branches []trace.Branch, opt Options, out []Metrics) bool {
	rs := make([]runner, len(preds))
	for i, p := range preds {
		rs[i] = newRunner(p, opt)
	}
	step := chunkLen(opt)
	done := ctx.Done()
	for off := 0; off < len(branches); off += step {
		if done != nil {
			select {
			case <-done:
				return false
			default:
			}
		}
		end := off + step
		if end > len(branches) {
			end = len(branches)
		}
		chunk := branches[off:end]
		for i := range rs {
			rs[i].feed(chunk)
		}
	}
	for i := range rs {
		out[i] = rs[i].finish()
	}
	return true
}
