// Package bpred_test is the benchmark harness regenerating every
// table and figure of Sechrest, Lee & Mudge (ISCA '96). One benchmark
// per experiment: run with
//
//	go test -bench=. -benchmem
//
// Each Benchmark<Table|Fig>N executes the corresponding experiment on
// a reduced context (short traces, tiers 2^4..2^9) so the whole suite
// completes in minutes; cmd/bpsweep runs the full-scale versions. The
// headline result of each experiment is attached as a custom metric
// (misp% = misprediction percentage) so the benchmark output itself
// documents the reproduced numbers.
//
// The BenchmarkAblation* family covers the design decisions called
// out in DESIGN.md: aliasing-meter overhead, first-level reset
// policies, and parallel fan-out vs sequential simulation.
package bpred_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"bpred/internal/checkpoint"
	"bpred/internal/core"
	"bpred/internal/experiments"
	"bpred/internal/history"
	"bpred/internal/service"
	"bpred/internal/sim"
	"bpred/internal/sweep"
	"bpred/internal/trace"
	"bpred/internal/workload"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
)

// ctx returns the shared scaled-down experiment context.
func ctx() *experiments.Context {
	benchCtxOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.Params{
			Seed:        1996,
			FocusLength: 400_000,
			SuiteLength: 200_000,
			MinBits:     4,
			MaxBits:     9,
		})
	})
	return benchCtx
}

// runExperiment benchmarks one registered experiment end to end.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	c := ctx()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(name, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

func BenchmarkFig2(b *testing.B) {
	c := ctx()
	var last *experiments.CurveSet
	for i := 0; i < b.N; i++ {
		last = experiments.Fig2(c)
	}
	reportCurve(b, last, "espresso")
}

func BenchmarkFig3(b *testing.B) {
	c := ctx()
	var last *experiments.CurveSet
	for i := 0; i < b.N; i++ {
		last = experiments.Fig3(c)
	}
	reportCurve(b, last, "espresso")
}

func reportCurve(b *testing.B, cs *experiments.CurveSet, name string) {
	if rates := cs.Rates[name]; len(rates) > 0 {
		b.ReportMetric(100*rates[len(rates)-1], "misp%")
	}
}

func BenchmarkFig4(b *testing.B) {
	c := ctx()
	var last *experiments.SurfaceSet
	for i := 0; i < b.N; i++ {
		last = experiments.Fig4(c)
	}
	reportBest(b, last, "mpeg_play")
}

func BenchmarkFig5(b *testing.B) {
	c := ctx()
	var last *experiments.SurfaceSet
	for i := 0; i < b.N; i++ {
		last = experiments.Fig5(c)
	}
	// Report the aliasing rate at the GAg edge of the top tier.
	s := last.Surfaces["mpeg_play"]
	n := c.Params().MaxBits
	if pt, ok := s.At(n, n); ok {
		b.ReportMetric(100*pt.Metrics.Alias.ConflictRate(), "alias%")
	}
}

func BenchmarkFig6(b *testing.B) {
	c := ctx()
	var last *experiments.SurfaceSet
	for i := 0; i < b.N; i++ {
		last = experiments.Fig6(c)
	}
	reportBest(b, last, "mpeg_play")
}

func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

func BenchmarkFig9(b *testing.B) {
	c := ctx()
	var last *experiments.SurfaceSet
	for i := 0; i < b.N; i++ {
		last = experiments.Fig9(c)
	}
	reportBest(b, last, "mpeg_play")
}

func BenchmarkFig10(b *testing.B) {
	c := ctx()
	var last *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig10(c)
	}
	b.ReportMetric(100*last.MissRates[128], "l1miss%")
}

func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// Extension experiments (not in the paper's evaluation).
func BenchmarkCombining(b *testing.B) { runExperiment(b, "combining") }
func BenchmarkDealias(b *testing.B)   { runExperiment(b, "dealias") }
func BenchmarkFrontend(b *testing.B)  { runExperiment(b, "frontend") }

func reportBest(b *testing.B, set *experiments.SurfaceSet, name string) {
	s := set.Surfaces[name]
	if pt, ok := s.BestInTier(ctx().Params().MaxBits); ok {
		b.ReportMetric(100*pt.Metrics.MispredictRate(), "misp%")
	}
}

// --- Ablation benches (DESIGN.md §4) ---

// BenchmarkAblationMeter quantifies the cost of aliasing
// instrumentation on the prediction fast path (design decision 2:
// meters are optional decorators).
func BenchmarkAblationMeter(b *testing.B) {
	prof, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(prof, 1, 200_000)
	run := func(b *testing.B, metered bool) {
		p := core.NewGShare(10, 2)
		if metered {
			p.EnableMeter()
		}
		src := tr.NewSource()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br, ok := src.Next()
			if !ok {
				src = tr.NewSource()
				br, _ = src.Next()
			}
			p.Predict(br)
			p.Update(br)
		}
	}
	b.Run("unmetered", func(b *testing.B) { run(b, false) })
	b.Run("metered", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationResetPolicy compares the paper's 0xC3FF-prefix
// first-level reset policy with the alternatives (design decision 3).
// The misp% metric is the result of interest.
func BenchmarkAblationResetPolicy(b *testing.B) {
	prof, _ := workload.ProfileByName("mpeg_play")
	tr := workload.Generate(prof, 1, 400_000)
	policies := []history.ResetPolicy{
		history.PrefixReset, history.ZeroReset, history.OnesReset, history.InheritStale,
	}
	for _, pol := range policies {
		b.Run(pol.String(), func(b *testing.B) {
			var m sim.Metrics
			for i := 0; i < b.N; i++ {
				p := core.NewPAs(0, history.NewSetAssoc(128, 4, 12, pol))
				m = sim.RunTrace(p, tr, sim.Options{Warmup: tr.Len() / 20})
			}
			b.ReportMetric(100*m.MispredictRate(), "misp%")
		})
	}
}

// BenchmarkAblationFanout compares the parallel multi-configuration
// runner against sequential simulation of the same configurations
// (design decision 1: one trace pass, many predictors).
func BenchmarkAblationFanout(b *testing.B) {
	prof, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(prof, 1, 150_000)
	configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, MinBits: 4, MaxBits: 9})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunConfigs(configs, tr, sim.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range configs {
				sim.RunTrace(c.MustBuild(), tr, sim.Options{})
			}
		}
	})
}

// BenchmarkPredictorThroughput reports per-branch prediction cost for
// each scheme family.
func BenchmarkPredictorThroughput(b *testing.B) {
	prof, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(prof, 1, 200_000)
	preds := map[string]func() core.Predictor{
		"address":  func() core.Predictor { return core.NewAddressIndexed(12) },
		"gas":      func() core.Predictor { return core.NewGAs(8, 4) },
		"gshare":   func() core.Predictor { return core.NewGShare(8, 4) },
		"path":     func() core.Predictor { return core.NewPath(8, 4, 2) },
		"pas-inf":  func() core.Predictor { return core.NewPAs(2, history.NewPerfect(10)) },
		"pas-1k4w": func() core.Predictor { return core.NewPAs(2, history.NewSetAssoc(1024, 4, 10, history.PrefixReset)) },
	}
	for name, mk := range preds {
		b.Run(name, func(b *testing.B) {
			p := mk()
			src := tr.NewSource()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br, ok := src.Next()
				if !ok {
					src = tr.NewSource()
					br, _ = src.Next()
				}
				p.Predict(br)
				p.Update(br)
			}
		})
	}
}

// BenchmarkWorkloadGeneration reports synthetic trace production cost.
func BenchmarkWorkloadGeneration(b *testing.B) {
	prof, _ := workload.ProfileByName("real_gcc")
	prog := workload.Build(prof, 1)
	em := prog.NewEmitter(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.Next()
	}
}

// BenchmarkTraceEncode reports trace serialization cost.
func BenchmarkTraceEncode(b *testing.B) {
	prof, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(prof, 1, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := trace.NewWriter(discard{}, tr.Name, tr.Instructions, uint64(tr.Len()))
		if err != nil {
			b.Fatal(err)
		}
		for _, br := range tr.Branches {
			if err := w.WriteBranch(br); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tr.Len()))
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkAblationCounterWidth compares second-level counter widths:
// 1-bit counters lack the hysteresis that shields biased branches
// from occasional aliasing hits; 3-bit counters add more hysteresis
// at 1.5x the storage. The misp% metric is the result of interest.
func BenchmarkAblationCounterWidth(b *testing.B) {
	prof, _ := workload.ProfileByName("mpeg_play")
	tr := workload.Generate(prof, 1, 400_000)
	for _, bits := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("%dbit", bits), func(b *testing.B) {
			var m sim.Metrics
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Scheme: core.SchemeGShare, RowBits: 10, ColBits: 2, CounterBits: bits}
				m = sim.RunTrace(cfg.MustBuild(), tr, sim.Options{Warmup: tr.Len() / 20})
			}
			b.ReportMetric(100*m.MispredictRate(), "misp%")
		})
	}
}

// --- Kernel fast-path benches (PR: batched, devirtualized kernels) ---

// kernelBenchConfigs are the per-scheme configurations BenchmarkKernels
// compares across the generic and batched execution paths.
func kernelBenchConfigs() map[string]func() core.Predictor {
	return map[string]func() core.Predictor{
		"address": func() core.Predictor { return core.NewAddressIndexed(12) },
		"gas":     func() core.Predictor { return core.NewGAs(8, 4) },
		"gshare":  func() core.Predictor { return core.NewGShare(8, 4) },
		"path":    func() core.Predictor { return core.NewPath(8, 4, 2) },
		"pas-inf": func() core.Predictor { return core.NewPAs(2, history.NewPerfect(10)) },
		"pas-1k4w": func() core.Predictor {
			return core.NewPAs(2, history.NewSetAssoc(1024, 4, 10, history.PrefixReset))
		},
		"sas-256": func() core.Predictor { return core.NewSAs(256, 10, 2) },
		"gshare-metered": func() core.Predictor {
			return core.NewGShare(8, 4).EnableMeter()
		},
		// A cache-hostile geometry (2^20 counters, a 1 MiB byte table),
		// as opposed to the L1-resident tables above.
		"gshare-1m": func() core.Predictor { return core.NewGShare(16, 4) },
		// Modern families (DESIGN.md §15). Their kernels drive the
		// concrete Access step, so "batched" differs from "generic" only
		// by static vs interface dispatch; the series tracks the
		// per-branch cost of the multi-table TAGE step, the perceptron
		// dot product, and the three-table tournament against the
		// classic schemes.
		"tage4": func() core.Predictor {
			return core.NewTAGE(8, 10, core.TAGEParams{Tables: 4}, false)
		},
		"perceptron": func() core.Predictor {
			return core.NewPerceptron(12, 8, core.PerceptronParams{}, false)
		},
		"mcfarling": func() core.Predictor { return core.NewMcFarling(10, 10, 10, false) },
	}
}

// BenchmarkKernels compares the generic interface-dispatched loop
// (sim.Run) against the batched byte-per-counter kernels
// (sim.RunTrace) per scheme. The ratios over generic are the fast
// path's headline numbers; `make bench-sim` records them as
// BENCH_sim.json for cross-PR tracking and `make bench-check` gates
// regressions against it.
//
// The series run in name order, so every run (and every paired round
// of `make bench-pair`) meets them in the same order.
func BenchmarkKernels(b *testing.B) {
	prof, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(prof, 1, 500_000)
	configs := kernelBenchConfigs()
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		mk := configs[name]
		b.Run(name+"/generic", func(b *testing.B) {
			b.SetBytes(int64(tr.Len()))
			for i := 0; i < b.N; i++ {
				sim.Run(mk(), tr.NewSource(), sim.Options{})
			}
		})
		b.Run(name+"/batched", func(b *testing.B) {
			b.SetBytes(int64(tr.Len()))
			for i := 0; i < b.N; i++ {
				sim.RunTrace(mk(), tr, sim.Options{})
			}
		})
	}
}

// BenchmarkSweepChunked measures the multi-configuration executor end
// to end: one gshare tier sweep over a shared trace, every geometry on
// its own kernel, chunk-shared across workers. This is the
// Figure-4-shaped workload the engine exists for.
func BenchmarkSweepChunked(b *testing.B) {
	prof, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(prof, 1, 300_000)
	configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, MinBits: 4, MaxBits: 10})
	b.SetBytes(int64(tr.Len() * len(configs)))
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunConfigs(configs, tr, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepTiers is the kernel shape of the end-to-end
// benchmark's fig4_cold workload: a gshare sweep over tiers
// 2^4..2^16 (143 configurations) on a 256K-branch gcc trace, one
// sim.RunConfigsCtx call per tier with warmup 1000, as the sweep
// service runs a job. BenchmarkSweepChunked covers the other shape:
// one call over small tables.
func BenchmarkSweepTiers(b *testing.B) {
	prof, _ := workload.ProfileByName("gcc")
	tr := workload.Generate(prof, 1, 1<<18)
	var tiers [][]core.Config
	n := 0
	for bits := 4; bits <= 16; bits++ {
		configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, Tiers: []int{bits}})
		tiers = append(tiers, configs)
		n += len(configs)
	}
	b.SetBytes(int64(tr.Len() * n))
	for i := 0; i < b.N; i++ {
		for _, configs := range tiers {
			if _, err := sim.RunConfigsCtx(context.Background(), configs, tr, sim.Options{Warmup: 1000}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepModern runs one modern family's tier-2^8 sweep —
// every row/column split of the budget, each on its own kernel — over
// a 256K-branch gcc trace: the shape of one cold sweep-service job.
// Unlike BenchmarkKernels' fixed geometries, the splits cover every
// fold width TAGE's index hash uses, 0 through 8.
func BenchmarkSweepModern(b *testing.B) {
	prof, _ := workload.ProfileByName("gcc")
	tr := workload.Generate(prof, 1, 1<<18)
	for _, s := range []struct {
		name   string
		scheme core.Scheme
	}{
		{"tage", core.SchemeTAGE},
		{"perceptron", core.SchemePerceptron},
		{"tournament", core.SchemeTournament},
	} {
		configs := sweep.Configs(sweep.Options{Scheme: s.scheme, Tiers: []int{8}})
		b.Run(s.name, func(b *testing.B) {
			b.SetBytes(int64(tr.Len() * len(configs)))
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunConfigs(configs, tr, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// encodeBPT1 renders a trace in the upload format.
func encodeBPT1(b *testing.B, tr *trace.Trace) []byte {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, tr.Name, tr.Instructions, uint64(tr.Len()))
	if err != nil {
		b.Fatal(err)
	}
	for _, br := range tr.Branches {
		if err := w.WriteBranch(br); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkTracePlane measures the layers under a streamed sweep
// over a 1M-branch gcc trace: the upload ingest (BPT1 decode, content
// digest, and BPT2 transcode through TraceStore.Ingest into a fresh
// store), a drain of the stored BPT2 file in 8192-record batches, and
// the tier-2^10 gshare sweep streamed off that file. MB/s counts
// branches, times configurations for the sweep, as the other series
// do.
func BenchmarkTracePlane(b *testing.B) {
	prof, _ := workload.ProfileByName("gcc")
	tr := workload.Generate(prof, 1, 1<<20)
	bpt1 := encodeBPT1(b, tr)
	dir := b.TempDir()
	bpt2 := filepath.Join(dir, "gcc.bpt2")
	if err := trace.WriteFile2(bpt2, tr, 0); err != nil {
		b.Fatal(err)
	}

	b.Run("ingest", func(b *testing.B) {
		b.SetBytes(int64(tr.Len()))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			storeDir := filepath.Join(dir, "store")
			store, err := service.NewTraceStore(storeDir, 1<<24, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := store.Ingest(bytes.NewReader(bpt1)); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := os.RemoveAll(storeDir); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(tr.Len()))
		buf := make([]trace.Branch, 1<<13)
		for i := 0; i < b.N; i++ {
			fr, err := trace.OpenFile(bpt2)
			if err != nil {
				b.Fatal(err)
			}
			for len(fr.NextBatch(buf)) > 0 {
			}
			if err := fr.Err(); err != nil {
				b.Fatal(err)
			}
			if err := fr.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, Tiers: []int{10}})
		b.SetBytes(int64(tr.Len() * len(configs)))
		for i := 0; i < b.N; i++ {
			fr, err := trace.OpenFile(bpt2)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.RunConfigsStream(context.Background(), configs, fr, sim.Options{Warmup: 1000}); err != nil {
				b.Fatal(err)
			}
			if err := fr.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fig4Ledger returns the cells of the end-to-end benchmark's
// fig4_cold job tier by tier — a gshare sweep over tiers 2^4..2^16,
// 143 cells, warmup 1000 — with real metrics from a short gcc trace,
// and that trace's digest.
func fig4Ledger(b *testing.B) (tiers [][]core.Config, cells [][]sim.Metrics, digest [32]byte) {
	prof, _ := workload.ProfileByName("gcc")
	tr := workload.Generate(prof, 1, 1<<14)
	for bits := 4; bits <= 16; bits++ {
		configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, Tiers: []int{bits}})
		ms, err := sim.RunConfigsCtx(context.Background(), configs, tr, sim.Options{Warmup: 1000})
		if err != nil {
			b.Fatal(err)
		}
		tiers = append(tiers, configs)
		cells = append(cells, ms)
	}
	return tiers, cells, tr.Digest()
}

// BenchmarkLedger measures the BPC1 checkpoint layer on the
// fig4_cold ledger. flush adds each tier's cells to a fresh file and
// flushes it, tier by tier, as the coordinator settles a cold job;
// lookup reads all 143 cells back, as a resubmitted job does. Neither
// sets bytes: benchjson compares them by ns/op.
func BenchmarkLedger(b *testing.B) {
	tiers, cells, digest := fig4Ledger(b)
	dir := b.TempDir()
	path := checkpoint.PathFor(dir, digest, 1000)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		b.Fatal(err)
	}
	fill := func(b *testing.B) *checkpoint.Store {
		st, err := checkpoint.Open(path, digest, 1000)
		if err != nil {
			b.Fatal(err)
		}
		for t, configs := range tiers {
			for i, c := range configs {
				st.Add(c.Fingerprint(), cells[t][i])
			}
			if err := st.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		return st
	}
	b.Run("flush", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fill(b)
			b.StopTimer()
			if err := os.Remove(path); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("lookup", func(b *testing.B) {
		fill(b)
		st, err := checkpoint.Open(path, digest, 1000)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, configs := range tiers {
				for _, c := range configs {
					if _, ok := st.Lookup(c.Fingerprint()); !ok {
						b.Fatalf("ledger lacks %s", c.Fingerprint())
					}
				}
			}
		}
	})
}

// BenchmarkJobSpec measures job-spec → config expansion as the sweep
// service pays it on every submit: validating the fig4_cold spec,
// enumerating and validating its 143 configurations, and hashing
// their fingerprints into the job's dedup key. Every op resubmits the
// spec of a finished job, so it dedups and nothing is simulated. It
// sets no bytes: benchjson compares it by ns/op.
func BenchmarkJobSpec(b *testing.B) {
	m, err := service.NewManager(service.Config{DataDir: b.TempDir(), PublishName: "bench-jobspec"})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			b.Fatal(err)
		}
	}()
	prof, _ := workload.ProfileByName("gcc")
	info, err := m.Traces().Ingest(bytes.NewReader(encodeBPT1(b, workload.Generate(prof, 1, 4096))))
	if err != nil {
		b.Fatal(err)
	}
	spec := service.JobSpec{Trace: info.Digest, Scheme: "gshare", MinBits: 4, MaxBits: 16, Warmup: 1000}
	j, _, err := m.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); j.State() != service.StateDone; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			b.Fatalf("job %s is %s, not done", j.ID, j.State())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, deduped, err := m.Submit(spec); err != nil || !deduped {
			b.Fatalf("resubmit: deduped %v, err %v", deduped, err)
		}
	}
}
