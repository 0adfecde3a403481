package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bpred/internal/checkpoint"
	"bpred/internal/core"
	"bpred/internal/service"
	"bpred/internal/sim"
	"bpred/internal/sweep"
	"bpred/internal/trace"
)

// replayPlan is the input of the traced replay: one op's pipeline run
// through the layers' public functions, each call timed from here.
type replayPlan struct {
	tr     *trace.Trace
	bpt1   []byte
	cutoff uint64          // TraceStore stream cutoff (0 = the default)
	jobs   []sweep.Options // the op's jobs
	stored []sweep.Options // the sweeps whose cells the op's checkpoint store holds
	gshare sweep.Options   // the gshare sweep the fused kernels run
}

// perCall runs fn until 20 ms have passed and returns its mean time in
// seconds, for calls too short to time one by one.
func perCall(fn func()) float64 {
	start := time.Now()
	for n := 1; ; n++ {
		fn()
		if el := time.Since(start); el >= 20*time.Millisecond {
			return el.Seconds() / float64(n)
		}
	}
}

// timed runs fn once and returns its time in seconds.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// replaySpans times each layer call of the plan's pipeline. The names
// are the per-layer metric names, plus sim.modern_s, the summed
// modern-family kernel time that modern_cold's pipeline uses.
func replaySpans(dir string, z sizes, p replayPlan) (map[string]float64, error) {
	out := map[string]float64{}
	ctx := context.Background()

	// Trace layer: ingest, first Acquire (the decode), and a drain of
	// the stored BPT2 with no kernel attached.
	store, err := service.NewTraceStore(filepath.Join(dir, "traces"), 1<<24, 0, p.cutoff)
	if err != nil {
		return nil, err
	}
	var info service.TraceInfo
	if out["trace.ingest_s"], err = timed(func() (err error) {
		info, err = store.Ingest(bytes.NewReader(p.bpt1))
		return err
	}); err != nil {
		return nil, err
	}
	out["trace.ingest_mb_per_s"] = float64(len(p.bpt1)) / 1e6 / out["trace.ingest_s"]
	var h *service.TraceHandle
	if out["trace.decode_s"], err = timed(func() (err error) {
		h, err = store.Acquire(info.Digest)
		return err
	}); err != nil {
		return nil, err
	}
	defer h.Release()
	drain, err := timed(func() error {
		fr, err := h.OpenStream()
		if err != nil {
			return err
		}
		defer fr.Close()
		buf := make([]trace.Branch, 1<<13)
		for len(fr.NextBatch(buf)) > 0 {
		}
		return fr.Err()
	})
	if err != nil {
		return nil, err
	}
	out["trace.bpt2_stream_mb_per_s"] = float64(info.Bytes) / 1e6 / drain

	// Sweep layer: configuration expansion of every job of the op.
	out["sweep.configs_s"] = perCall(func() {
		for _, o := range p.jobs {
			sweep.Configs(o)
		}
	})

	// Kernels: the fused gshare path, called once per tier as the
	// service's executor calls it, each modern family at its tier, and
	// the streaming path over the stored BPT2.
	predictions := 0
	for _, n := range tiersOf(p.gshare) {
		cs := sweep.Configs(onlyTier(p.gshare, n))
		t, err := timed(func() error {
			_, err := sim.RunConfigsCtx(ctx, cs, p.tr, sim.Options{Warmup: p.gshare.Sim.Warmup})
			return err
		})
		if err != nil {
			return nil, err
		}
		out["sim.fused_s"] += t
		predictions += len(cs) * p.tr.Len()
	}
	out["sim.fused_ns_per_prediction"] = out["sim.fused_s"] * 1e9 / float64(predictions)
	prefix := p.tr
	if prefix.Len() > z.branches {
		prefix = prefix.Slice(0, z.branches)
	}
	for _, scheme := range modernFamilies {
		cs := sweep.Configs(sweep.Options{Scheme: scheme, Tiers: []int{z.modernTier}})
		t, err := timed(func() error {
			_, err := sim.RunConfigsCtx(ctx, cs, prefix, sim.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		out["sim."+scheme.String()+"_ns_per_prediction"] = t * 1e9 / float64(len(cs)*prefix.Len())
		out["sim.modern_s"] += t * float64(p.tr.Len()) / float64(prefix.Len())
	}
	ss := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, Tiers: z.streamTiers})
	if out["sim.stream_s"], err = timed(func() error {
		fr, err := h.OpenStream()
		if err != nil {
			return err
		}
		defer fr.Close()
		_, err = sim.RunConfigsStream(ctx, ss, fr, sim.Options{Warmup: streamWarmup})
		return err
	}); err != nil {
		return nil, err
	}

	// Checkpoint layer: Add + Flush per tier of the stored sweeps into a
	// fresh BPC1 file, then Lookup of every cell the op's jobs read.
	raw, err := hex.DecodeString(info.Digest)
	if err != nil {
		return nil, err
	}
	digest := [32]byte(raw)
	stores := map[int]*checkpoint.Store{}
	for _, o := range p.stored {
		cells, err := sweepCells(o, p.tr)
		if err != nil {
			return nil, err
		}
		w := o.Sim.Warmup
		if stores[w] == nil {
			path := checkpoint.PathFor(filepath.Join(dir, "checkpoints"), digest, uint64(w))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return nil, err
			}
			if stores[w], err = checkpoint.Open(path, digest, uint64(w)); err != nil {
				return nil, err
			}
		}
		st := stores[w]
		t, err := timed(func() error {
			for _, n := range tiersOf(o) {
				for _, c := range sweep.Configs(onlyTier(o, n)) {
					st.Add(c.Fingerprint(), cells[c.Fingerprint()])
				}
				if err := st.Flush(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out["checkpoint.flush_s"] += t
	}
	var lookupErr error
	out["checkpoint.lookup_s"] = perCall(func() {
		for _, o := range p.jobs {
			st := stores[o.Sim.Warmup]
			for _, c := range sweep.Configs(o) {
				if _, ok := st.Lookup(c.Fingerprint()); !ok && lookupErr == nil {
					lookupErr = fmt.Errorf("checkpoint store lacks %s", c.Fingerprint())
				}
			}
		}
	})
	return out, lookupErr
}

// tiersOf lists a sweep's tiers in execution order.
func tiersOf(o sweep.Options) []int {
	if len(o.Tiers) > 0 {
		return o.Tiers
	}
	var out []int
	for n := o.MinBits; n <= o.MaxBits; n++ {
		out = append(out, n)
	}
	return out
}

// onlyTier restricts a sweep to one of its tiers.
func onlyTier(o sweep.Options, n int) sweep.Options {
	o.MinBits, o.MaxBits, o.Tiers = 0, 0, []int{n}
	return o
}

// resultEncode times the server's JSON rendering of the op's results.
func resultEncode(runs []jobRun) float64 {
	return perCall(func() {
		for _, r := range runs {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			if err := enc.Encode(r.result); err != nil {
				panic(err) // a decoded JobResult always re-encodes
			}
		}
	})
}

// perLayer assembles the per-layer metrics: the client's spans and the
// service's counters per op, runtime counters over the measured ops,
// and the traced replay's spans.
func perLayer(sp spec, z sizes, root string, samples []opSample, walls []time.Duration, uploads []uploadSpan,
	rp replayPlan, last []jobRun, e2e map[string]metric) (map[string]metric, error) {
	n := float64(len(samples))
	med := func(f func(opSample) float64) float64 { return medianOf(samples, f) }
	secs := func(f func(opSample) time.Duration) float64 {
		return med(func(s opSample) float64 { return f(s).Seconds() })
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("op_count", n, "count")
	put("predictions_per_s", sum(samples, func(s opSample) float64 { return float64(s.progress.Branches) })/sumDur(walls), "1/s")

	// Service round trips: every upload of the run, set-up's included,
	// then the op's calls.
	upTimes := make([]float64, len(uploads))
	upRates := make([]float64, len(uploads))
	for i, u := range uploads {
		upTimes[i] = u.d.Seconds()
		upRates[i] = float64(u.bytes) / 1e6 / u.d.Seconds()
	}
	put("service.upload_s", median(upTimes), "s")
	put("service.upload_mb_per_s", median(upRates), "MB/s")
	put("service.submit_s", secs(func(s opSample) time.Duration { return s.submit }), "s")
	put("service.result_s", secs(func(s opSample) time.Duration { return s.fetch }), "s")
	put("service.result_bytes", med(func(s opSample) float64 { return float64(s.resultBytes) }), "bytes")
	put("service.queue_wait_s", secs(func(s opSample) time.Duration { return s.queueWait }), "s")
	put("service.run_s", secs(func(s opSample) time.Duration { return s.run }), "s")
	put("service.completion_lag_s", secs(func(s opSample) time.Duration { return s.lag }), "s")
	put("service.poll_gap_s", secs(func(s opSample) time.Duration { return s.gap }), "s")
	put("service.jobs_json_bytes", med(func(s opSample) float64 { return float64(s.jobsJSON) }), "bytes")
	put("checkpoint.bpc1_bytes", med(func(s opSample) float64 { return float64(s.bpc1) }), "bytes")

	// Progress counters, per op.
	put("obs.branches", med(func(s opSample) float64 { return float64(s.progress.Branches) }), "count")
	put("obs.chunks", med(func(s opSample) float64 { return float64(s.progress.Chunks) }), "count")
	put("obs.configs_completed", med(func(s opSample) float64 { return float64(s.progress.ConfigsCompleted) }), "count")
	put("obs.configs_cached", med(func(s opSample) float64 { return float64(s.progress.ConfigsCached) }), "count")
	put("obs.tier_time_s", med(func(s opSample) float64 { return s.progress.TierTime.Seconds() }), "s")
	cached := sum(samples, func(s opSample) float64 { return float64(s.progress.ConfigsCached) })
	done := sum(samples, func(s opSample) float64 { return float64(s.progress.ConfigsCompleted) })
	put("obs.cache_hit_ratio", cached/(cached+done), "ratio")

	// Go runtime inside the timed ops, per op.
	put("runtime.alloc_mb_per_op", sum(samples, func(s opSample) float64 { return float64(s.runtime.allocBytes) })/1e6/n, "MB")
	put("runtime.gc_cycles_per_op", sum(samples, func(s opSample) float64 { return float64(s.runtime.gcCycles) })/n, "count")
	put("runtime.gc_pause_s", sum(samples, func(s opSample) float64 { return float64(s.runtime.pauseNs) })/1e9/n, "s")

	// Traced replay.
	spans, err := replaySpans(filepath.Join(root, "replay"), z, rp)
	if err != nil {
		return nil, err
	}
	spans["service.result_encode_s"] = resultEncode(last)
	for name, v := range spans {
		if name == "sim.modern_s" {
			continue
		}
		unit := "s"
		switch {
		case name == "trace.ingest_mb_per_s" || name == "trace.bpt2_stream_mb_per_s":
			unit = "MB/s"
		case strings.HasSuffix(name, "_ns_per_prediction"):
			unit = "ns"
		}
		put(name, v, unit)
	}
	for name, v := range m {
		spans[name] = v.Value
	}
	op := e2e["op_p50_s"].Value
	for _, name := range sp.pipeline {
		op -= spans[name]
	}
	put("unattributed_s", op, "s")
	return m, nil
}
