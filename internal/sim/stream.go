package sim

import (
	"context"

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
// As in RunConfigsCtx, every configuration is validated before any
// goroutine starts, and each worker builds its own partition's
// predictors: a stage builds them when its first window arrives. A
// source with no records reaches no stage; the caller then builds
// them, so every entry still carries its name.
//
// Cancellation is checked at chunk boundaries only (kernels stay
// pure). On cancellation every returned entry is zero — a single
// shared pass has no per-config completion order — and ctx.Err() is
// returned. A source error (corrupt or truncated trace) is returned
// the same way: zero metrics, non-nil error. Once RunConfigsStream
// returns it holds no goroutine and never calls src again, so the
// caller may close the source right away.
func RunConfigsStream(ctx context.Context, configs []core.Config, src trace.BatchSource, opt Options) ([]Metrics, error) {
	if err := validateConfigs(configs, opt); err != nil {
		return nil, err
	}
	n, build := len(configs), buildConfig(configs)
	parts := partitions(n)
	// The caller decodes windows into a quarter of the chunk buffer
	// each, and one trace.FanOut stage per partition feeds it every
	// window, so the decode of the next windows overlaps the kernels
	// running the earlier ones and no memory is added. Each config
	// sees the windows in stream order, so results do not change.
	stages := make([]func([]trace.Branch) error, len(parts))
	for w := range stages {
		p := &parts[w]
		stages[w] = func(chunk []trace.Branch) error {
			if p.rs == nil {
				p.build(n, build, opt)
			}
			p.feed(chunk)
			return nil
		}
	}
	buf := make([]trace.Branch, max(chunkLen(opt), streamWindows))
	zero := make([]Metrics, n)
	if err := trace.FanOut(ctx, src, trace.Cut(buf, streamWindows), stages...); err != nil {
		return zero, err
	}
	if es, ok := src.(interface{ Err() error }); ok {
		if err := es.Err(); err != nil {
			return zero, err
		}
	}
	out := make([]Metrics, n)
	for w := range parts {
		if parts[w].rs == nil { // no window reached this stage
			parts[w].build(n, build, opt)
		}
		parts[w].finish(out)
	}
	return out, nil
}

// streamWindows is how many windows RunConfigsStream cuts its chunk
// buffer into. Two would be enough to decode one window ahead, but
// with two the decode cannot start until the slowest worker releases
// the older window; four let a worker run ahead of the others by up
// to three windows, so the decode fills whichever CPU is free.
const streamWindows = 4
