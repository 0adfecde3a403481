package service

import (
	"context"
	"errors"
	"fmt"
	"os"

	"bpred/internal/obs"
	"bpred/internal/sim"
	"bpred/internal/sweep"
)

// runJob drives one job end to end inside a worker: transition to
// running, execute, classify the outcome (done / failed / canceled /
// interrupted), persist the result and the job table, and fold the
// job's counters into the manager's global set.
func (m *Manager) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while waiting in the queue
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.ctx)
	j.state = StateRunning
	j.cancel = cancel
	j.started = obs.Now()
	j.mu.Unlock()
	defer cancel()
	m.persistJobs()

	if m.hookJobStart != nil {
		m.hookJobStart(ctx, j)
	}

	var lastMerged obs.Snapshot
	mergeGlobal := func() {
		snap := j.Obs.Snapshot()
		m.global.Merge(snap.Sub(lastMerged))
		lastMerged = snap
	}
	defer mergeGlobal()

	res, err := m.execute(ctx, j, mergeGlobal)

	j.mu.Lock()
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// reason distinguishes a user cancel from a server drain; both
		// keep the partial-result contract.
		j.state = j.reason
	default:
		j.state = StateFailed
		j.errText = err.Error()
	}
	if res != nil {
		res.State = j.state
		j.result = res
	}
	j.finished = obs.Now()
	j.mu.Unlock()

	if res != nil {
		if perr := m.persistResult(j.ID, res); perr != nil {
			fmt.Fprintf(os.Stderr, "bpserved: persisting result %s: %v\n", j.ID, perr)
		}
	}
	m.persistJobs()
}

// execute evaluates the job tier by tier, each tier in one
// Coordinator.RunCells call. The coordinator is the service's one
// exactly-once mechanism: it serves settled cells from the BPC1
// ledger, subscribes the job to cells another job already has in
// flight, and dispatches the rest as one chunk per worker — so a lone
// embedded worker runs each tier in one sim call and one trace pass.
// RunCells credits the job's counters with what it resolved and with
// the branches its chunks simulated.
//
// A cancel or drain returns at once with the partial result (every
// settled cell) and ctx's error. A tier already dispatched finishes
// in the worker and lands in the ledger for the next job, unless a
// drain stops the worker first.
func (m *Manager) execute(ctx context.Context, j *Job, mergeGlobal func()) (*JobResult, error) {
	// Acquire leases the job's trace: small traces stay pinned in the
	// decoded LRU (never evicted while this job runs, so the worker's
	// unpinned loads hit), large ones come back as zero-residency
	// streaming handles.
	tr, err := m.traces.Acquire(j.Spec.Trace)
	if err != nil {
		return nil, err
	}
	defer tr.Release()
	digest := j.digest()
	collected := make(map[string]sim.Metrics, len(j.Configs))
	for _, tier := range tiersOf(j.Opts) {
		if err := ctx.Err(); err != nil {
			return buildResult(j, tr.Info().Name, collected), err
		}
		tierStop := j.Obs.TierTimer()
		tierOpts := j.Opts
		tierOpts.Tiers = []int{tier}
		configs := sweep.Configs(tierOpts)
		ms, err := m.coord.RunCells(ctx, digest, uint64(j.Spec.Warmup), configs, j.Obs)
		for i, c := range configs {
			if ms[i].Name != "" {
				collected[c.Fingerprint()] = ms[i]
			}
		}
		if err != nil {
			return buildResult(j, tr.Info().Name, collected), err
		}
		tierStop()
		mergeGlobal()
		if m.hookTierDone != nil {
			m.hookTierDone(ctx, j, tier)
		}
	}
	return buildResult(j, tr.Info().Name, collected), nil
}

// tiersOf returns the job's tier list in execution order.
func tiersOf(o sweep.Options) []int {
	if len(o.Tiers) > 0 {
		return o.Tiers
	}
	lo, hi := o.MinBits, o.MaxBits
	if lo == 0 && hi == 0 {
		lo, hi = sweep.DefaultMinBits, sweep.DefaultMaxBits
	}
	out := make([]int, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}
