package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/sim"
)

// WorkerStats counts worker-side events.
type WorkerStats struct {
	// ChunksRun counts chunks executed to completion.
	ChunksRun uint64
	// CellsComputed counts cells this worker's kernels evaluated.
	CellsComputed uint64
}

// Worker pulls chunks from a coordinator, runs the simulation
// kernels, and reports results. It keeps no cells: the coordinator's
// ledger is the only cell cache.
type Worker struct {
	id     string
	client CoordinatorClient
	traces TraceProvider

	// RetryDelay backs off transport errors (default 50ms). All
	// transport errors — including coordinator shutdown — are
	// retried, because a partitioned or restarted coordinator may
	// come back behind the same client; canceling ctx is the only way
	// to stop a worker.
	RetryDelay time.Duration

	mu    sync.Mutex
	stats WorkerStats //bplint:guardedby mu

	// hookChunk, when set, runs before each chunk executes; the chaos
	// harness uses it to kill a worker mid-chunk at a deterministic
	// point.
	hookChunk func(ctx context.Context, ch *Chunk)
}

// NewWorker builds a worker. id must be unique within the fleet.
func NewWorker(id string, client CoordinatorClient, traces TraceProvider) *Worker {
	return &Worker{id: id, client: client, traces: traces}
}

// ID returns the worker's fleet identity.
func (w *Worker) ID() string { return w.id }

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Run joins the coordinator and serves chunks until ctx ends; it
// returns ctx's error (a worker has no other way to finish). A chunk
// interrupted by the cancellation is dropped unreported — the
// coordinator re-queues it via WorkerLeave or lease expiry. Run may
// be called from several goroutines at once: each is one pull loop
// under the worker's one fleet identity, so one node runs that many
// chunks in parallel.
func (w *Worker) Run(ctx context.Context) error {
	joined := false
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !joined {
			if err := w.client.Join(ctx, w.id); err != nil {
				w.sleep(ctx)
				continue
			}
			joined = true
		}
		ch, err := w.client.Next(ctx, w.id)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, ErrUnknownWorker) {
				joined = false // coordinator restarted: re-register
				continue
			}
			w.sleep(ctx)
			continue
		}
		if ch == nil {
			continue
		}
		res := w.execute(ctx, ch)
		if res == nil { // canceled mid-chunk
			return ctx.Err()
		}
		for {
			if err := w.client.Complete(ctx, w.id, *res); err == nil {
				break
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.sleep(ctx)
		}
	}
}

func (w *Worker) sleep(ctx context.Context) {
	d := w.RetryDelay
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// execute runs one chunk in one simulate call, so one chunk-shared
// pass serves the whole slab. It returns nil when ctx was canceled
// mid-chunk — the partial work is dropped and the chunk stays the
// coordinator's to re-queue.
func (w *Worker) execute(ctx context.Context, ch *Chunk) *ChunkResult {
	if w.hookChunk != nil {
		w.hookChunk(ctx, ch)
	}
	res := &ChunkResult{Chunk: ch.ID, Trace: ch.Trace, Warmup: ch.Warmup}
	var cnt obs.Counters
	cnt.Tee(ch.Obs)
	ms, err := w.simulate(ctx, ch.Trace, ch.Configs, sim.Options{Warmup: int(ch.Warmup), Obs: &cnt})
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		res.Err = err.Error()
		for _, cfg := range ch.Configs {
			res.Failed = append(res.Failed, cfg.Fingerprint())
		}
		return res
	}
	for i, cfg := range ch.Configs {
		res.Cells = append(res.Cells, CellResult{Fingerprint: cfg.Fingerprint(), Metrics: ms[i]})
	}
	res.Progress = cnt.Snapshot()
	res.Live = ch.Obs != nil
	w.mu.Lock()
	w.stats.ChunksRun++
	w.stats.CellsComputed += uint64(len(ch.Configs))
	w.mu.Unlock()
	return res
}

// simulate runs configs over one trace in a single pass. A
// StreamProvider that streams the trace yields a fresh BPT2 reader, so
// a trace past its stream cutoff is never resident; any other trace is
// decoded through the provider.
func (w *Worker) simulate(ctx context.Context, digest string, configs []core.Config, opt sim.Options) ([]sim.Metrics, error) {
	if sp, ok := w.traces.(StreamProvider); ok {
		fr, err := sp.OpenStream(digest)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %s: trace %s: %w", w.id, digest, err)
		}
		if fr != nil {
			ms, err := sim.RunConfigsStream(ctx, configs, fr, opt)
			if cerr := fr.Close(); err == nil {
				err = cerr
			}
			return ms, err
		}
	}
	tr, err := w.traces.Trace(ctx, digest)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: trace %s: %w", w.id, digest, err)
	}
	return sim.RunConfigsCtx(ctx, configs, tr, opt)
}
