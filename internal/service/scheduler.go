package service

import (
	"context"

	"bpred/internal/cluster"
	"bpred/internal/core"
	"bpred/internal/sim"
)

// Scheduler abstracts where a job's cells execute. The executor hands
// it one tier's uncached, claimed cells at a time plus the job's
// trace lease and relies on the partial-result contract
// sim.RunConfigsCtx established: on error, entries with a non-empty
// Metrics.Name are final and the rest were not evaluated.
type Scheduler interface {
	RunCells(ctx context.Context, digest [32]byte, warmup int, configs []core.Config, tr *TraceHandle, opt sim.Options) ([]sim.Metrics, error)
}

// LocalScheduler runs cells in-process on the simulation engine —
// bpserved's single-node mode and the default when Config.Scheduler
// is nil. Decoded handles take the in-memory fast path; streaming
// handles (traces past the store's stream cutoff) drive the same
// kernels from one window of BPT2 blocks at a time, with bit-identical
// metrics.
type LocalScheduler struct{}

// RunCells implements Scheduler.
func (LocalScheduler) RunCells(ctx context.Context, digest [32]byte, warmup int, configs []core.Config, tr *TraceHandle, opt sim.Options) ([]sim.Metrics, error) {
	_, _ = digest, warmup
	if tr.Streaming() {
		src, err := tr.OpenStream()
		if err != nil {
			return nil, err
		}
		defer src.Close() //bplint:ignore codecerr read-only stream; decode errors surface through Err inside RunConfigsStream
		return sim.RunConfigsStream(ctx, configs, src, opt)
	}
	return sim.RunConfigsCtx(ctx, configs, tr.Decoded(), opt)
}

// ClusterScheduler routes cells to a cluster coordinator, which
// consistent-hashes them across the worker fleet and extends the
// cell-level single-flight to cluster scope. The kernels run on
// remote workers, so the job's branch counters are fed here from each
// settled cell's totals; fleet-global accounting (exactly-once
// completions, cache hits, replication) lives on the coordinator's
// own counters.
type ClusterScheduler struct {
	Coord *cluster.Coordinator
}

// RunCells implements Scheduler.
func (s ClusterScheduler) RunCells(ctx context.Context, digest [32]byte, warmup int, configs []core.Config, tr *TraceHandle, opt sim.Options) ([]sim.Metrics, error) {
	_ = tr // workers fetch the trace themselves
	ms, err := s.Coord.RunCells(ctx, digest, uint64(warmup), configs)
	if opt.Obs != nil {
		for i := range ms {
			if ms[i].Name != "" {
				opt.Obs.AddChunk(ms[i].Branches)
			}
		}
	}
	return ms, err
}
