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
// interrupted), persist the result and journal each transition, and
// fold the job's counters into the manager's global set. A job turns
// terminal only once its result file and its finish line are on
// disk: until then, polls read running and Result ErrNotFinished.
func (m *Manager) runJob(j *Job) {
	ctx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel // set before the job can read running
	j.mu.Unlock()
	if !m.transition(j, StateQueued, func(r *jobRecord) {
		r.State, r.StartedAt = StateRunning, obs.Now()
	}) {
		return // canceled while waiting in the queue
	}

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

	state, errText := StateDone, ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// reason distinguishes a user cancel from a server drain; both
		// keep the partial-result contract.
		j.mu.Lock()
		state = j.reason
		j.mu.Unlock()
	default:
		state, errText = StateFailed, err.Error()
	}
	if res != nil {
		res.State = state
		if perr := m.persistResult(j.ID, res); perr != nil {
			fmt.Fprintf(os.Stderr, "bpserved: persisting result %s: %v\n", j.ID, perr)
		}
		j.mu.Lock()
		j.result = res // read only once the state is terminal
		j.mu.Unlock()
	}
	m.transition(j, StateRunning, func(r *jobRecord) {
		// Stamped after the result's commit: FinishedAt marks when the
		// job became visible as finished.
		r.State, r.Error, r.FinishedAt = state, errText, obs.Now()
	})
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
	collected := make(map[string]sim.Metrics, len(j.Configs))
	for _, tier := range j.Opts.TierList() {
		if err := ctx.Err(); err != nil {
			return buildResult(j, tr.Info().Name, collected), err
		}
		tierStop := j.Obs.TierTimer()
		tierOpts := j.Opts
		tierOpts.Tiers = []int{tier}
		configs := sweep.Configs(tierOpts)
		ms, err := m.coord.RunCells(ctx, j.digest, uint64(j.Spec.Warmup), configs, j.Obs)
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
