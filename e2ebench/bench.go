package main

import (
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"bpred/internal/checkpoint"
	"bpred/internal/obs"
	"bpred/internal/service"
)

// jobRun is one job's round trip as the client saw it.
type jobRun struct {
	status      service.JobStatus
	result      *service.JobResult
	submit      time.Duration
	fetch       time.Duration
	resultBytes int
	sent        time.Time // when the poll that saw the job done was sent
	seen        time.Time // when that poll's reply arrived
}

// runJob submits the job in the given slot of an op, waits for it, and
// fetches its result.
func runJob(s *server, p *poller, spec service.JobSpec, slot int) (jobRun, error) {
	var r jobRun
	t0 := time.Now()
	id, err := s.submit(spec)
	if err != nil {
		return r, err
	}
	r.submit = time.Since(t0)
	if r.status, r.sent, r.seen, err = p.await(s, id, slot); err != nil {
		return r, err
	}
	t1 := time.Now()
	r.result, r.resultBytes, err = s.result(id)
	r.fetch = time.Since(t1)
	return r, err
}

// opSample is one op's measurements. Durations and counts are summed
// over the op's jobs.
type opSample struct {
	wall        time.Duration
	submit      time.Duration
	fetch       time.Duration
	resultBytes int
	queueWait   time.Duration
	run         time.Duration
	lag         time.Duration
	gap         time.Duration // FinishedAt until the poll that saw it was sent
	polls       int           // status requests made while waiting
	progress    obs.Snapshot
	cells       int
	jobsJSON    int64 // jobs.json size after the op
	bpc1        int64 // size of the checkpoint files the op's jobs use
	runtime     runStats
}

// runOp executes one op: the optional upload, then each job in turn,
// one in flight. The op's wall time runs from the first request until
// the last result is in hand.
func runOp(s *server, p *poller, plan opPlan) (opSample, []jobRun, error) {
	var smp opSample
	polls := p.polls
	start := time.Now()
	digest := plan.digest
	if plan.upload != "" {
		info, err := s.uploadFile(plan.upload)
		if err != nil {
			return smp, nil, err
		}
		digest = info.Digest
	}
	runs := make([]jobRun, 0, len(plan.jobs))
	for k, j := range plan.jobs {
		r, err := runJob(s, p, jobSpec(j.opts, digest), k)
		if err != nil {
			return smp, runs, err
		}
		runs = append(runs, r)
	}
	smp.wall = time.Since(start)
	smp.polls = p.polls - polls

	for _, r := range runs {
		st := r.status
		smp.submit += r.submit
		smp.fetch += r.fetch
		smp.resultBytes += r.resultBytes
		smp.queueWait += st.StartedAt.Sub(st.SubmittedAt)
		smp.run += st.FinishedAt.Sub(*st.StartedAt)
		smp.lag += r.seen.Sub(*st.FinishedAt)
		smp.gap += max(r.sent.Sub(*st.FinishedAt), 0)
		smp.progress.Branches += st.Progress.Branches
		smp.progress.Chunks += st.Progress.Chunks
		smp.progress.ConfigsCompleted += st.Progress.ConfigsCompleted
		smp.progress.ConfigsCached += st.Progress.ConfigsCached
		smp.progress.TierTime += st.Progress.TierTime
		smp.cells += len(r.result.Cells)
	}
	if fi, err := os.Stat(filepath.Join(s.dir, "jobs.json")); err == nil {
		smp.jobsJSON = fi.Size()
	}
	seen := map[string]bool{}
	for _, j := range plan.jobs {
		raw, err := hex.DecodeString(digest)
		if err != nil || len(raw) != 32 {
			return smp, runs, fmt.Errorf("bad trace digest %q", digest)
		}
		path := checkpoint.PathFor(filepath.Join(s.dir, "checkpoints"), [32]byte(raw), uint64(j.opts.Sim.Warmup))
		if seen[path] {
			continue
		}
		seen[path] = true
		if fi, err := os.Stat(path); err == nil {
			smp.bpc1 += fi.Size()
		}
	}
	return smp, runs, nil
}

// runStats are Go runtime counters, read on both sides of each timed
// op so the harness's own work between ops is left out.
type runStats struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
}

func readRunStats() runStats {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runStats{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), pauseNs: ms.PauseTotalNs}
}

func (a runStats) sub(b runStats) runStats {
	return runStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.pauseNs - b.pauseNs}
}

// heapPeak tracks the highest live heap the collector reports for a
// collection that ran inside a timed op. A reading left by a
// collection between ops would count the harness's input generation.
type heapPeak struct {
	s     []metrics.Sample
	armed uint64 // collections completed when the current op began
	peak  uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}}
}

// baseline collects now and takes the resulting live heap as the
// starting peak.
func (h *heapPeak) baseline() {
	runtime.GC()
	metrics.Read(h.s)
	h.peak = h.s[0].Value.Uint64()
}

// arm marks the start of a timed op.
func (h *heapPeak) arm() {
	metrics.Read(h.s)
	h.armed = h.s[1].Value.Uint64()
}

// sample records the live heap if a collection finished since arm; a
// nil receiver records nothing.
func (h *heapPeak) sample() {
	if h == nil {
		return
	}
	metrics.Read(h.s)
	if h.s[1].Value.Uint64() > h.armed {
		h.peak = max(h.peak, h.s[0].Value.Uint64())
	}
}

// execute runs one workload: inputs and references, repeated set-up,
// the fixed number of ops, and with o.trace the traced replay.
func execute(sp spec, o options, logw io.Writer) (result, map[string]any, error) {
	z := fullSizes
	ops := max(int(math.Round(sp.opsPerSecond*float64(o.seconds))), tailOps)
	if o.smoke {
		z = smokeSizes
		ops = tailOps
	}
	total := warmupOps + ops
	diag := map[string]any{"workload": sp.name, "seed": o.seed, "ops": ops, "warmup_ops": warmupOps}
	res := result{Metrics: map[string]metric{}}

	if err := os.MkdirAll(o.data, 0o755); err != nil {
		return res, diag, err
	}
	root, err := os.MkdirTemp(o.data, sp.name+"-")
	if err != nil {
		return res, diag, err
	}
	defer os.RemoveAll(root)

	probeBefore := hostProbe(o.smoke)
	w := sp.make()
	inputs := filepath.Join(root, "inputs")
	if err := os.MkdirAll(inputs, 0o755); err != nil {
		return res, diag, err
	}
	if err := w.prepare(z, o.seed, total, inputs); err != nil {
		return res, diag, fmt.Errorf("preparing inputs: %w", err)
	}

	// Set-up runs z.setups times before the ops and z.setups times after
	// them, each on a fresh data directory, so setup_s, the median,
	// samples the host at both ends of the run. The last set-up before
	// the ops serves them.
	cfg := w.serviceConfig(z)
	cfg.Workers = 1
	cfg.PublishName = "e2ebench"
	var setups []float64
	var uploads []uploadSpan
	setUp := func() (*server, error) {
		t0 := time.Now()
		srv, err := startServer(filepath.Join(root, fmt.Sprintf("setup%d", len(setups))), cfg, &uploads)
		if err != nil {
			return nil, err
		}
		if err := w.setup(srv); err != nil {
			srv.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return srv, nil
	}
	setUps := func(n int) error {
		for k := 0; k < n; k++ {
			srv, err := setUp()
			if err != nil {
				return err
			}
			if err := srv.close(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := setUps(z.setups - 1); err != nil {
		return res, diag, err
	}
	srv, err := setUp()
	if err != nil {
		return res, diag, err
	}
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	w.release()
	runtime.GC()

	heap := newHeapPeak()
	poll := &poller{heap: heap}
	var samples []opSample
	var walls []time.Duration
	var last []jobRun
	for i := 0; i < total; i++ {
		plan, err := w.op(i)
		if err != nil {
			return res, diag, err
		}
		if i == warmupOps {
			heap.baseline()
		}
		res.Attempted++
		heap.arm()
		before := readRunStats()
		smp, runs, err := runOp(srv, poll, plan)
		smp.runtime = readRunStats().sub(before)
		heap.sample()
		if err == nil {
			for k, r := range runs {
				if err = check(plan.jobs[k].opts, plan.jobs[k].want, r.result); err != nil {
					break
				}
			}
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(logw, "e2ebench: %s op %d: %v\n", sp.name, i, err)
			continue
		}
		if i >= warmupOps {
			samples = append(samples, smp)
			walls = append(walls, smp.wall)
			last = runs
		}
	}
	err = srv.close()
	srv = nil
	if err != nil {
		return res, diag, err
	}
	if err := setUps(z.setups); err != nil {
		return res, diag, err
	}
	diag["host_probe_ns_per_read"] = map[string]float64{"before": probeBefore, "after": hostProbe(o.smoke)}
	diag["setup_s_each"] = setups
	diag["polls_per_op"] = medianOf(samples, func(s opSample) float64 { return float64(s.polls) })

	res.Correct = res.Failed == 0
	tail, pct, err := tailOf(walls)
	if err != nil {
		// Only failed ops leave a run short of tailOps samples.
		return res, diag, fmt.Errorf("%w: %d of %d (%v)", errFailedOps, res.Failed, res.Attempted, err)
	}
	diag["op_tail_percentile"] = pct
	e2e := map[string]metric{
		"setup_s":           {median(setups), "s"},
		"op_p50_s":          {medianDur(walls), "s"},
		"op_tail_s":         {tail.Seconds(), "s"},
		"cells_per_s":       {float64(sum(samples, func(s opSample) float64 { return float64(s.cells) })) / sumDur(walls), "1/s"},
		"live_heap_peak_mb": {float64(heap.peak) / 1e6, "MB"},
	}
	if !o.trace {
		res.Metrics = e2e
	} else {
		rp, err := w.replay()
		if err != nil {
			return res, diag, fmt.Errorf("traced replay: %w", err)
		}
		res.Metrics, err = perLayer(sp, z, root, samples, walls, uploads, rp, last, e2e)
		if err != nil {
			return res, diag, fmt.Errorf("traced replay: %w", err)
		}
		res.Metrics["op_tail_percentile"] = metric{pct, "%"}
		res.Metrics["failed_op_ratio"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	}
	if res.Failed > 0 {
		return res, diag, fmt.Errorf("%w: %d of %d", errFailedOps, res.Failed, res.Attempted)
	}
	return res, diag, nil
}
