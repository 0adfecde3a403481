package sim

import (
	"context"
	"runtime"
	"sync"

	"bpred/internal/core"
	"bpred/internal/trace"
)

// RunConfigsStream builds and evaluates every configuration over a
// streaming branch source in a single pass, without requiring the
// trace to be memory-resident: each NextBatch window (for a BPT2
// reader, one decoded block) is fed to every runner before the next
// is decoded, so peak residency is one chunk regardless of trace
// length. Metrics are bit-identical to RunConfigsCtx over the decoded
// trace — chunking does not affect results (the metamorphic suite
// pins this), and the per-config runners here are the same ones the
// in-memory path uses. Where the in-memory path gives each worker its
// own walk over the resident trace, the streaming path decodes each
// chunk once and parallelizes across configs within it.
//
// Cancellation is checked at chunk boundaries only (kernels stay
// pure). On cancellation every returned entry is zero — a single
// shared pass has no per-config completion order — and ctx.Err() is
// returned. A source error (corrupt or truncated trace) is returned
// the same way: zero metrics, non-nil error.
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

// streamChunks drives the decode loop, fanning each chunk across
// worker goroutines in strided config partitions (the same assignment
// RunPredictorsCtx uses). The chunk window is only valid until the
// next NextBatch call, so every worker must drain it before the next
// decode — a per-chunk barrier. Workers are persistent; the barrier
// is two channel hops per chunk, amortized over a whole chunk of
// kernel work per config.
func streamChunks(ctx context.Context, rs []runner, src trace.BatchSource, opt Options) error {
	buf := make([]trace.Branch, chunkLen(opt))
	done := ctx.Done()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(rs) {
		workers = len(rs)
	}
	if workers <= 1 {
		for {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			chunk := src.NextBatch(buf)
			if len(chunk) == 0 {
				return nil
			}
			for i := range rs {
				rs[i].feed(chunk)
			}
		}
	}
	feed := make([]chan []trace.Branch, workers)
	var barrier sync.WaitGroup
	for w := 0; w < workers; w++ {
		ch := make(chan []trace.Branch)
		feed[w] = ch
		go func(w int, ch <-chan []trace.Branch) {
			for chunk := range ch {
				for i := w; i < len(rs); i += workers {
					rs[i].feed(chunk)
				}
				barrier.Done()
			}
		}(w, ch)
	}
	defer func() {
		for _, ch := range feed {
			close(ch)
		}
	}()
	for {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		chunk := src.NextBatch(buf)
		if len(chunk) == 0 {
			return nil
		}
		barrier.Add(workers)
		for _, ch := range feed {
			ch <- chunk
		}
		barrier.Wait()
	}
}
