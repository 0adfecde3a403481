package sim

import (
	"fmt"
	"testing"

	"bpred/internal/core"
	"bpred/internal/history"
	"bpred/internal/rng"
	"bpred/internal/trace"
)

// kernelTrace synthesizes a deterministic branch stream with the
// structure the kernels care about: a modest set of branch sites
// (aliasing happens), per-site direction bias (counters saturate),
// and occasional site-set switches (histories churn).
func kernelTrace(seed uint64, n int) *trace.Trace {
	r := rng.NewXoshiro256(seed)
	sites := 40 + r.Intn(200)
	pcs := make([]uint64, sites)
	targets := make([]uint64, sites)
	bias := make([]float64, sites)
	for i := range pcs {
		pcs[i] = (uint64(r.Intn(1 << 18))) << 2
		targets[i] = (uint64(r.Intn(1 << 18))) << 2
		bias[i] = r.Float64()
	}
	branches := make([]trace.Branch, n)
	site := 0
	for i := range branches {
		// Mostly walk a hot loop of sites; sometimes jump.
		if r.Bool(0.1) {
			site = r.Intn(sites)
		} else {
			site = (site + 1) % sites
		}
		branches[i] = trace.Branch{
			PC:     pcs[site],
			Target: targets[site],
			Taken:  r.Bool(bias[site]),
		}
	}
	return &trace.Trace{Name: "synthetic", Instructions: uint64(n) * 5, Branches: branches}
}

// equivalenceSchemes enumerates a constructor per scheme family,
// covering every monomorphic kernel (including the per-BHT
// sub-kernels), metered variants, non-default counter widths, and a
// non-TwoLevel predictor that must take the generic chunk loop.
func equivalenceSchemes() map[string]func() core.Predictor {
	schemes := map[string]func() core.Predictor{
		"address":       func() core.Predictor { return core.NewAddressIndexed(10) },
		"address-1bit":  func() core.Predictor { return core.NewAddressIndexed(10).WithCounterBits(1) },
		"address-meter": func() core.Predictor { return core.NewAddressIndexed(8).EnableMeter() },
		"gag":           func() core.Predictor { return core.NewGAg(10) },
		"gas":           func() core.Predictor { return core.NewGAs(7, 3) },
		"gas-3bit":      func() core.Predictor { return core.NewGAs(7, 3).WithCounterBits(3) },
		"gas-meter":     func() core.Predictor { return core.NewGAs(6, 4).EnableMeter() },
		"gshare":        func() core.Predictor { return core.NewGShare(9, 2) },
		"gshare-meter":  func() core.Predictor { return core.NewGShare(8, 2).EnableMeter() },
		"path":          func() core.Predictor { return core.NewPath(8, 3, 2) },
		"path-meter":    func() core.Predictor { return core.NewPath(8, 3, 1).EnableMeter() },
		"pag-perfect":   func() core.Predictor { return core.NewPAg(history.NewPerfect(8)) },
		"pas-perfect":   func() core.Predictor { return core.NewPAs(3, history.NewPerfect(7)) },
		"pas-perfect-m": func() core.Predictor { return core.NewPAs(3, history.NewPerfect(7)).EnableMeter() },
		"pas-setassoc":  func() core.Predictor { return core.NewPAs(2, history.NewSetAssoc(256, 4, 8, history.PrefixReset)) },
		"pas-setassoc-m": func() core.Predictor {
			return core.NewPAs(2, history.NewSetAssoc(256, 4, 8, history.PrefixReset)).EnableMeter()
		},
		"sas":          func() core.Predictor { return core.NewSAs(128, 8, 2) },
		"pas-untagged": func() core.Predictor { return core.NewPAs(2, history.NewUntagged(256, 8)) },
		"pag-0bit":     func() core.Predictor { return core.NewPAg(history.NewPerfect(0)) },
		"tournament": func() core.Predictor {
			return core.NewTournament(core.NewAddressIndexed(8), core.NewGShare(8, 0), 8)
		},
		"tage": func() core.Predictor {
			return core.NewTAGE(8, 10, core.TAGEParams{}, false)
		},
		"tage-meter": func() core.Predictor {
			// Small geometry with a short aging period so victimization
			// and useful-bit halving both happen inside the test traces.
			return core.NewTAGE(6, 8, core.TAGEParams{Tables: 5, MinHist: 2, MaxHist: 40, TagBits: 6, UPeriod: 512}, true)
		},
		"perceptron": func() core.Predictor {
			return core.NewPerceptron(12, 8, core.PerceptronParams{}, false)
		},
		"perceptron-meter": func() core.Predictor {
			return core.NewPerceptron(8, 6, core.PerceptronParams{WeightBits: 6, Threshold: 9}, true)
		},
		"mcfarling": func() core.Predictor {
			return core.NewMcFarling(10, 10, 9, false)
		},
		"mcfarling-meter": func() core.Predictor {
			return core.NewMcFarling(8, 9, 7, true)
		},
		// Tier edges: an all-address and an all-history gshare split,
		// and a 2^16-counter table.
		"gshare-rows0": func() core.Predictor { return core.NewGShare(0, 8) },
		"gshare-cols0": func() core.Predictor { return core.NewGShare(10, 0) },
		"gshare-64k":   func() core.Predictor { return core.NewGShare(14, 2) },
		// More target bits per event than a shift count can hold.
		"path-wide": func() core.Predictor { return core.NewPath(10, 2, 70) },
	}
	// Every classic loop steps its counters through the Step table of
	// the table's width: cover the narrowest, an odd, and the widest
	// width, metered and not.
	families := map[string]func() *core.TwoLevel{
		"address": func() *core.TwoLevel { return core.NewAddressIndexed(9) },
		"gas":     func() *core.TwoLevel { return core.NewGAs(6, 3) },
		"gshare":  func() *core.TwoLevel { return core.NewGShare(7, 2) },
		"path":    func() *core.TwoLevel { return core.NewPath(6, 2, 2) },
	}
	for fam, mk := range families {
		for _, bits := range []int{1, 3, 8} {
			name := fmt.Sprintf("width/%s-%dbit", fam, bits)
			schemes[name] = func() core.Predictor { return mk().WithCounterBits(bits) }
			schemes[name+"-meter"] = func() core.Predictor { return mk().WithCounterBits(bits).EnableMeter() }
		}
	}
	return schemes
}

// checkEquivalent runs generic and batched copies of one scheme over
// one trace and fails unless every metric and the final second-level
// state match exactly.
func checkEquivalent(t *testing.T, name string, build func() core.Predictor, tr *trace.Trace, opt Options) {
	t.Helper()
	ref, fast := build(), build()
	want := Run(ref, tr.NewSource(), opt)
	got := RunTrace(fast, tr, opt)
	if got != want {
		t.Errorf("%s: batched metrics diverge\n got: %+v\nwant: %+v", name, got, want)
	}
	rt, okRef := ref.(*core.TwoLevel)
	ft, okFast := fast.(*core.TwoLevel)
	if okRef && okFast {
		for i := 0; i < rt.Table().Size(); i++ {
			if rt.Table().State(i) != ft.Table().State(i) {
				t.Errorf("%s: second-level state diverges at entry %d: generic %d, batched %d",
					name, i, rt.Table().State(i), ft.Table().State(i))
				break
			}
		}
	}
}

// TestKernelEquivalence is the central correctness contract of the
// batched fast path: for every scheme, bit-identical Metrics (counts,
// alias statistics, first-level miss rate) and bit-identical final
// predictor state versus the generic reference loop.
func TestKernelEquivalence(t *testing.T) {
	traces := []*trace.Trace{
		kernelTrace(1, 20011),
		kernelTrace(2, 4096),
	}
	opts := []Options{
		{},
		{Warmup: 1037},
		{Warmup: 3, Chunk: 511},
		{Chunk: 1},
	}
	for name, build := range equivalenceSchemes() {
		for ti, tr := range traces {
			for oi, opt := range opts {
				opt := opt
				if opt.Warmup > len(tr.Branches) {
					opt.Warmup = len(tr.Branches) / 2
				}
				t.Run(name, func(t *testing.T) {
					checkEquivalent(t, name, build, tr, opt)
				})
				_ = ti
				_ = oi
			}
		}
	}
}

// plainSource hides the BatchSource fast path so RunBatched exercises
// the batchAdapter copy loop.
type plainSource struct{ src trace.Source }

func (p plainSource) Next() (trace.Branch, bool) { return p.src.Next() }

// TestRunBatchedAdapterEquivalence covers the generic-Source entry
// point: an arbitrary Source adapted into chunks must match Run too.
func TestRunBatchedAdapterEquivalence(t *testing.T) {
	tr := kernelTrace(7, 10007)
	opt := Options{Warmup: 100, Chunk: 513}
	build := func() core.Predictor { return core.NewGShare(8, 2).EnableMeter() }
	want := Run(build(), tr.NewSource(), opt)
	got := RunBatched(build(), plainSource{tr.NewSource()}, opt)
	if got != want {
		t.Errorf("RunBatched over adapter diverges\n got: %+v\nwant: %+v", got, want)
	}
}

// TestRunPredictorsEquivalence checks the chunk-shared batch executor
// end to end: many predictors over one trace, each bit-identical to
// its solo generic run, results in input order.
func TestRunPredictorsEquivalence(t *testing.T) {
	tr := kernelTrace(11, 30011)
	opt := Options{Warmup: 517}
	schemes := equivalenceSchemes()
	names := make([]string, 0, len(schemes))
	preds := make([]core.Predictor, 0, len(schemes))
	want := make([]Metrics, 0, len(schemes))
	for name, build := range schemes {
		names = append(names, name)
		preds = append(preds, build())
		want = append(want, Run(build(), tr.NewSource(), opt))
	}
	got := RunPredictors(preds, tr, opt)
	for i := range preds {
		if got[i] != want[i] {
			t.Errorf("%s: RunPredictors diverges\n got: %+v\nwant: %+v", names[i], got[i], want[i])
		}
	}
}

// FuzzKernelEquivalence drives randomized traces and run options
// through every kernel, asserting the equivalence contract.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(512), uint16(0), uint16(0))
	f.Add(uint64(42), uint16(8192), uint16(1000), uint16(511))
	f.Add(uint64(7), uint16(1), uint16(5), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, warmup, chunk uint16) {
		tr := kernelTrace(seed, int(n)+1)
		opt := Options{Warmup: int(warmup), Chunk: int(chunk)}
		for name, build := range equivalenceSchemes() {
			checkEquivalent(t, name, build, tr, opt)
		}
	})
}

// TestZeroAllocPerBranch proves both paths allocate nothing per
// branch: total allocations for a whole run are a small constant
// (kernel closures, worker bookkeeping), independent of trace length.
// The modern families run metered, TAGE at its widest per-table
// state (16 tables, 16-bit tags): kernelpure checks only loop bodies,
// and their whole per-branch steps live in loop-free Access methods.
func TestZeroAllocPerBranch(t *testing.T) {
	tr := kernelTrace(3, 16384)
	opt := Options{Warmup: 100}
	// Warm first-level Perfect tables so map growth is excluded; the
	// steady-state loop is what the zero-alloc claim covers.
	schemes := map[string]func() core.Predictor{
		"address":      func() core.Predictor { return core.NewAddressIndexed(10) },
		"gshare":       func() core.Predictor { return core.NewGShare(9, 2).EnableMeter() },
		"gshare-plain": func() core.Predictor { return core.NewGShare(9, 2) },
		"gshare-3bit":  func() core.Predictor { return core.NewGShare(9, 2).WithCounterBits(3) },
		"gas":          func() core.Predictor { return core.NewGAs(7, 3) },
		"path":         func() core.Predictor { return core.NewPath(8, 3, 2) },
		"pas":          func() core.Predictor { return core.NewPAs(3, history.NewPerfect(7)) },
		"tage": func() core.Predictor {
			return core.NewTAGE(5, 6, core.TAGEParams{Tables: 16, MaxHist: 64, TagBits: 16}, true)
		},
		"perceptron": func() core.Predictor { return core.NewPerceptron(12, 6, core.PerceptronParams{}, true) },
		"tournament": func() core.Predictor { return core.NewMcFarling(9, 8, 7, true) },
	}
	const maxFixed = 32.0
	for name, build := range schemes {
		p := build()
		RunTrace(p, tr, opt) // warm predictor state (Perfect BHT map)
		batched := testing.AllocsPerRun(5, func() { RunTrace(p, tr, opt) })
		if batched > maxFixed {
			t.Errorf("%s: RunTrace allocates %.0f times over a 16k-branch trace; want a small constant", name, batched)
		}
		g := build()
		Run(g, tr.NewSource(), opt)
		src := tr.NewSource()
		generic := testing.AllocsPerRun(5, func() {
			src = tr.NewSource()
			Run(g, src, opt)
		})
		if generic > maxFixed {
			t.Errorf("%s: generic Run allocates %.0f times over a 16k-branch trace; want a small constant", name, generic)
		}
	}
}
