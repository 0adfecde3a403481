package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
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
	// CellsLocal counts chunk cells answered from the local replica
	// cache without simulation.
	CellsLocal uint64
	// ReplicasInstalled counts replica cells installed from
	// coordinator pushes.
	ReplicasInstalled uint64
}

// Worker pulls chunks from a coordinator, runs the simulation
// kernels, and reports results. An in-memory replica cache — warmed
// only by piggybacked replication of cells other workers computed —
// lets it answer a chunk whose cells were already settled elsewhere
// without re-simulating. Cells it computes itself live in the
// coordinator's ledger alone.
type Worker struct {
	id     string
	client CoordinatorClient
	traces TraceProvider

	// SimTemplate seeds each chunk's sim.Options (kernel selection,
	// batch sizing); Warmup and Obs are bound per chunk.
	SimTemplate sim.Options
	// RetryDelay backs off transport errors (default 50ms). All
	// transport errors — including coordinator shutdown — are
	// retried, because a partitioned or restarted coordinator may
	// come back behind the same client; canceling ctx is the only way
	// to stop a worker.
	RetryDelay time.Duration

	mu       sync.Mutex
	replicas map[string]sim.Metrics //bplint:guardedby mu // cell key (Key.String form) -> replicated metrics
	stats    WorkerStats            //bplint:guardedby mu

	// hookChunk, when set, runs before each chunk executes; the chaos
	// harness uses it to kill a worker mid-chunk at a deterministic
	// point.
	hookChunk func(ctx context.Context, ch *Chunk)
}

// NewWorker builds a worker. id must be unique within the fleet; it
// is the worker's ring identity.
func NewWorker(id string, client CoordinatorClient, traces TraceProvider) *Worker {
	return &Worker{
		id:       id,
		client:   client,
		traces:   traces,
		replicas: make(map[string]sim.Metrics),
	}
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
		work, err := w.client.Next(ctx, w.id)
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
		w.install(work.Replicas)
		if work.Chunk == nil {
			continue
		}
		res := w.execute(ctx, work.Chunk)
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

// execute runs one chunk: cells present in the local replica cache
// are answered directly, the rest go through one simulate call (so
// one chunk-shared pass per worker serves the whole slab). It returns
// nil when ctx was canceled mid-chunk — the partial work is dropped
// and the chunk stays the coordinator's to re-queue.
func (w *Worker) execute(ctx context.Context, ch *Chunk) *ChunkResult {
	if w.hookChunk != nil {
		w.hookChunk(ctx, ch)
	}
	res := &ChunkResult{Chunk: ch.ID, Trace: ch.Trace, Warmup: ch.Warmup}
	fail := func(err error) *ChunkResult {
		res.Err = err.Error()
		res.Failed = res.Failed[:0]
		for _, cfg := range ch.Configs {
			res.Failed = append(res.Failed, cfg.Fingerprint())
		}
		return res
	}
	var missing []core.Config
	local := 0
	w.mu.Lock()
	for _, cfg := range ch.Configs {
		fp := cfg.Fingerprint()
		if m, ok := w.replicas[replicaKey(ch.Trace, ch.Warmup, fp)]; ok {
			res.Cells = append(res.Cells, CellResult{Fingerprint: fp, Metrics: m})
			local++
			continue
		}
		missing = append(missing, cfg)
	}
	w.mu.Unlock()
	computed := 0
	if len(missing) > 0 {
		opt := w.SimTemplate
		var cnt obs.Counters
		cnt.Tee(ch.Obs)
		opt.Warmup = int(ch.Warmup)
		opt.Obs = &cnt
		ms, err := w.simulate(ctx, ch.Trace, missing, opt)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fail(err)
		}
		for i, cfg := range missing {
			res.Cells = append(res.Cells, CellResult{Fingerprint: cfg.Fingerprint(), Metrics: ms[i]})
		}
		computed = len(missing)
		res.Progress = cnt.Snapshot()
		res.Live = ch.Obs != nil
	}
	w.mu.Lock()
	w.stats.ChunksRun++
	w.stats.CellsLocal += uint64(local)
	w.stats.CellsComputed += uint64(computed)
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

// ReplicaCells returns the number of cells the worker's replica cache
// holds.
func (w *Worker) ReplicaCells() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.replicas)
}

// install folds pushed replicas into the replica cache.
func (w *Worker) install(reps []ReplicaCell) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, r := range reps {
		k := replicaKey(r.Trace, r.Warmup, r.Fingerprint)
		if _, ok := w.replicas[k]; ok {
			continue
		}
		w.replicas[k] = r.Metrics
		w.stats.ReplicasInstalled++
	}
}

// replicaKey renders a cell's identity in Key.String form from its
// wire fields.
func replicaKey(hexDigest string, warmup uint64, fp string) string {
	return hexDigest + "|" + strconv.FormatUint(warmup, 10) + "|" + fp
}
