package sim

import (
	"context"
	"runtime"

	"bpred/internal/core"
	"bpred/internal/trace"
)

// RunConfigsStream builds and evaluates every configuration over a
// streaming branch source in a single pass, without requiring the
// trace to be memory-resident: each NextBatch window (for a BPT2
// reader, a run of decoded blocks) is fed to every runner while the
// next windows are decoded into the rest of the same chunk buffer, so
// peak residency is one chunk regardless of trace length. Metrics are
// bit-identical to RunConfigsCtx over the decoded trace — chunking
// does not affect results (the metamorphic suite pins this), and the
// per-config runners here are the same ones the in-memory path uses.
// Where the in-memory path gives each worker its own walk over the
// resident trace, the streaming path decodes each chunk once and
// parallelizes across configs within it.
//
// Cancellation is checked at chunk boundaries only (kernels stay
// pure). On cancellation every returned entry is zero — a single
// shared pass has no per-config completion order — and ctx.Err() is
// returned. A source error (corrupt or truncated trace) is returned
// the same way: zero metrics, non-nil error. Once RunConfigsStream
// returns it holds no goroutine and never calls src again, so the
// caller may close the source right away.
func RunConfigsStream(ctx context.Context, configs []core.Config, src trace.BatchSource, opt Options) ([]Metrics, error) {
	preds, err := buildConfigs(configs, opt)
	if err != nil {
		return nil, err
	}
	rs := make([]runner, len(preds))
	for i, p := range preds {
		rs[i] = newRunner(p, opt)
	}
	zero := make([]Metrics, len(preds))
	if err := streamChunks(ctx, rs, src, opt); err != nil {
		return zero, err
	}
	if es, ok := src.(interface{ Err() error }); ok {
		if err := es.Err(); err != nil {
			return zero, err
		}
	}
	out := make([]Metrics, len(rs))
	for i := range rs {
		out[i] = rs[i].finish()
	}
	return out, nil
}

// streamWindows is how many windows streamChunks cuts its chunk
// buffer into. Two would be enough to decode one window ahead, but
// with two the decode cannot start until the slowest worker releases
// the older window; four let a worker run ahead of the others by up
// to three windows, so the decode fills whichever CPU is free.
const streamWindows = 4

// streamChunks drives the decode loop through trace.FanOut: the
// caller decodes windows into a quarter of the chunk buffer each, and
// one stage goroutine per worker feeds every window to its strided
// config partition (the same assignment RunPredictorsCtx uses), so the
// decode of the next windows overlaps the kernels running the earlier
// ones and no memory is added. Each config sees the windows in stream
// order, so results do not change.
func streamChunks(ctx context.Context, rs []runner, src trace.BatchSource, opt Options) error {
	buf := make([]trace.Branch, max(chunkLen(opt), streamWindows))
	workers := max(1, min(runtime.GOMAXPROCS(0), len(rs)))
	stages := make([]func([]trace.Branch) error, workers)
	for w := range stages {
		stages[w] = func(chunk []trace.Branch) error {
			for i := w; i < len(rs); i += workers {
				rs[i].feed(chunk)
			}
			return nil
		}
	}
	return trace.FanOut(ctx, src, trace.Cut(buf, streamWindows), stages...)
}
