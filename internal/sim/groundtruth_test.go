package sim

import (
	"strconv"
	"testing"

	"bpred/internal/core"
	"bpred/internal/history"
	"bpred/internal/refmodel"
	"bpred/internal/trace"
)

// Ground truth for the classic kernels: tiny traces with planted
// structure, each with its expected counts derived by hand and written
// into the test as a literal or a formula. The kernels, the generic
// loop and internal/refmodel come from one reading of the paper; these
// fixtures come from the counter and history rules alone, so a
// misreading the three share still fails here. Every fixture runs
// through RunTrace (the batched kernels), Run (the generic loop) and
// the reference model. Counters start weakly taken, as in the paper.

// truth is one fixture's hand-derived result. The alias taxonomy is
// checked on the reference model always and on the engine when the
// predictor is metered.
type truth struct {
	branches, mispredicts uint64
	alias                 core.AliasStats
	firstLevelMissRate    float64
}

// runTruth runs one fixture through RunTrace, Run and the reference
// model, fails on any count that differs from w, and returns the
// batched and generic predictors for state checks.
func runTruth(t *testing.T, build func() *core.TwoLevel, rc refmodel.Config, branches []trace.Branch, warmup int, w truth) (fast, ref *core.TwoLevel) {
	t.Helper()
	tr := &trace.Trace{Name: "fixture", Branches: branches}
	opt := Options{Warmup: warmup}
	fast, ref = build(), build()
	check := func(side string, m Metrics, alias bool) {
		t.Helper()
		if m.Branches != w.branches || m.Mispredicts != w.mispredicts {
			t.Errorf("%s: %d of %d branches mispredicted, want %d of %d",
				side, m.Mispredicts, m.Branches, w.mispredicts, w.branches)
		}
		if alias && m.Alias != w.alias {
			t.Errorf("%s: alias %+v, want %+v", side, m.Alias, w.alias)
		}
		if m.FirstLevelMissRate != w.firstLevelMissRate {
			t.Errorf("%s: first-level miss rate %g, want %g", side, m.FirstLevelMissRate, w.firstLevelMissRate)
		}
	}
	metered := fast.Meter() != nil
	check("RunTrace", RunTrace(fast, tr, opt), metered)
	check("Run", Run(ref, tr.NewSource(), opt), metered)

	m, err := refmodel.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	var got Metrics
	for i, b := range branches {
		st := m.Step(b)
		if i < warmup {
			continue
		}
		got.Branches++
		if st.Predicted != b.Taken {
			got.Mispredicts++
		}
	}
	tot := m.Totals()
	got.Alias = core.AliasStats{
		Accesses: tot.Accesses, Conflicts: tot.Conflicts, AllOnes: tot.AllOnes,
		Agreeing: tot.Agreeing, Destructive: tot.Destructive,
	}
	got.FirstLevelMissRate = tot.FirstLevelMissRate()
	check("refmodel", got, true)
	return fast, ref
}

// metered returns both an unmetered and a metered build of a scheme.
func metered(build func() *core.TwoLevel) map[string]func() *core.TwoLevel {
	return map[string]func() *core.TwoLevel{
		"":       build,
		"-meter": func() *core.TwoLevel { return build().EnableMeter() },
	}
}

// TestGroundTruthLoopExit: a loop back-edge of trip count n >= 2 is
// taken n-1 times and falls through once. Under a 2-bit bimodal
// counter the first taken pass saturates the counter, the exit drops
// it to weakly taken and the next entry restores it, so in steady
// state each visit mispredicts exactly once, at its exit.
func TestGroundTruthLoopExit(t *testing.T) {
	const pc, visits = 0x4000, 50
	for _, n := range []int{2, 3, 7, 64} {
		var br []trace.Branch
		for v := 0; v < visits; v++ {
			for i := 1; i <= n; i++ {
				br = append(br, trace.Branch{PC: pc, Target: pc - 0x40, Taken: i < n})
			}
		}
		w := truth{ // the first visit is warmup
			branches:    uint64((visits - 1) * n),
			mispredicts: visits - 1,
			alias:       core.AliasStats{Accesses: uint64(visits * n)},
		}
		rc := refmodel.Config{Scheme: refmodel.Bimodal, ColBits: 4}
		for suffix, build := range metered(func() *core.TwoLevel { return core.NewAddressIndexed(4) }) {
			t.Run("n="+strconv.Itoa(n)+suffix, func(t *testing.T) {
				runTruth(t, build, rc, br, n, w)
			})
		}
	}
}

// TestGroundTruthPeriodicGlobal: one branch repeats a pattern of
// minimal period p. Any p consecutive outcomes fix the phase, so under
// a global history of h >= p bits each table entry sees one phase and
// one next outcome. Once the register holds real outcomes (h branches)
// and every phase's counter has been trained twice (2p branches),
// nothing mispredicts. gshare XORs one fixed address into the row and
// a 1-bit path history records the complemented outcome (the target
// and the fall-through differ in their low word bit), so both are
// bijections of GAg's index and share the result. The final register
// must hold the last h outcomes, newest in bit 0.
func TestGroundTruthPeriodicGlobal(t *testing.T) {
	const pc, target, periods = 0x100, 0x200, 40 // word bit 0: fall-through 1, target 0
	for _, pat := range []string{"TTTN", "TTNTN", "TNNTTTN"} {
		p := len(pat)
		var br []trace.Branch
		for k := 0; k < periods*p; k++ {
			br = append(br, trace.Branch{PC: pc, Target: target, Taken: pat[k%p] == 'T'})
		}
		for _, h := range []int{p, p + 3} {
			var last uint64 // the last h outcomes
			for _, b := range br[len(br)-h:] {
				last <<= 1
				if b.Taken {
					last |= 1
				}
			}
			mask := uint64(1)<<h - 1
			warm := h + 2*p
			w := truth{
				branches: uint64(len(br) - warm),
				alias:    core.AliasStats{Accesses: uint64(len(br))},
			}
			schemes := []struct {
				name  string
				build func() *core.TwoLevel
				rc    refmodel.Config
				reg   uint64
			}{
				{"gag", func() *core.TwoLevel { return core.NewGAg(h) },
					refmodel.Config{Scheme: refmodel.Global, HistBits: h}, last},
				{"gshare", func() *core.TwoLevel { return core.NewGShare(h, 0) },
					refmodel.Config{Scheme: refmodel.GShare, HistBits: h}, last},
				{"path", func() *core.TwoLevel { return core.NewPath(h, 0, 1) },
					refmodel.Config{Scheme: refmodel.Path, HistBits: h, PathBits: 1}, ^last & mask},
			}
			for _, sc := range schemes {
				for suffix, build := range metered(sc.build) {
					t.Run(pat+"/"+sc.name+"-h"+strconv.Itoa(h)+suffix, func(t *testing.T) {
						fast, ref := runTruth(t, build, sc.rc, br, warm, w)
						for side, pr := range map[string]*core.TwoLevel{"RunTrace": fast, "Run": ref} {
							if got, _ := histValue(pr); got != sc.reg {
								t.Errorf("%s: final history %#x, want %#x", side, got, sc.reg)
							}
						}
					})
				}
			}
		}
	}
}

// TestGroundTruthForcedCollision is the paper's §3 destructive case:
// an always-taken and a never-taken branch whose addresses agree in
// the low column bits share one bimodal counter. Alternating from the
// taken one, the counter swings between strongly and weakly taken:
// every not-taken access mispredicts, and every access after the first
// is a destructive conflict. In a table wide enough to separate them,
// the never-taken branch misses once and nothing conflicts.
func TestGroundTruthForcedCollision(t *testing.T) {
	const a, pairs = 0x1000, 100
	const b = a + 4<<4 // same low 4 word bits as a, different bit 4
	var br []trace.Branch
	for i := 0; i < pairs; i++ {
		br = append(br, trace.Branch{PC: a, Target: a + 0x80, Taken: true},
			trace.Branch{PC: b, Target: b + 0x80, Taken: false})
	}
	cases := []struct {
		name    string
		colBits int
		w       truth
	}{
		{"shared", 4, truth{branches: 2 * pairs, mispredicts: pairs, alias: core.AliasStats{
			Accesses: 2 * pairs, Conflicts: 2*pairs - 1, Destructive: 2*pairs - 1}}},
		{"separate", 5, truth{branches: 2 * pairs, mispredicts: 1, alias: core.AliasStats{
			Accesses: 2 * pairs}}},
	}
	for _, c := range cases {
		rc := refmodel.Config{Scheme: refmodel.Bimodal, ColBits: c.colBits}
		for suffix, build := range metered(func() *core.TwoLevel { return core.NewAddressIndexed(c.colBits) }) {
			t.Run(c.name+suffix, func(t *testing.T) {
				runTruth(t, build, rc, br, 0, c.w)
			})
		}
	}
}

// TestGroundTruthPAsConflictReset is the paper's §5 first-level
// conflict: two branches share a one-entry tagged history table, so
// each one's first access in a run evicts the other and resets the
// register to the width-h prefix of 0xC3FF (repeating past 16 bits).
// Each run is A, A, B, B with A always taken and B never taken, under
// PAg (one column), so the rows are P, P1, P, P0 with P the prefix,
// P1 = P<<1|1 and P0 = P<<1, masked to h bits. A never misses; B
// misses at P every time (A left it strongly taken) and at P0 once;
// half the lookups miss the first level; and only row P is shared,
// destructively on every access after the first. After the last run,
// P is back at weakly taken, P1 strongly taken, P0 strongly not taken,
// and every other counter untouched.
func TestGroundTruthPAsConflictReset(t *testing.T) {
	const a, b, runs = 0x2000, 0x3000, 25
	var br []trace.Branch
	for i := 0; i < runs; i++ {
		br = append(br,
			trace.Branch{PC: a, Target: a + 0x40, Taken: true},
			trace.Branch{PC: a, Target: a + 0x40, Taken: true},
			trace.Branch{PC: b, Target: b + 0x40, Taken: false},
			trace.Branch{PC: b, Target: b + 0x40, Taken: false})
	}
	w := truth{
		branches:           4 * runs,
		mispredicts:        runs + 1,
		alias:              core.AliasStats{Accesses: 4 * runs, Conflicts: 2*runs - 1, Destructive: 2*runs - 1},
		firstLevelMissRate: 0.5,
	}
	for _, c := range []struct {
		h      int
		prefix uint64
	}{{8, 0xC3}, {12, 0xC3F}, {20, 0xC3FFC}} {
		mask := uint64(1)<<c.h - 1
		p1, p0 := (c.prefix<<1|1)&mask, c.prefix<<1&mask
		rc := refmodel.Config{Scheme: refmodel.PerAddress, HistBits: c.h,
			FirstLevel: refmodel.Tagged, Entries: 1, Ways: 1, Reset: refmodel.ResetPrefix}
		pas := func() *core.TwoLevel {
			return core.NewPAg(history.NewSetAssoc(1, 1, c.h, history.PrefixReset))
		}
		for suffix, build := range metered(pas) {
			t.Run("h"+strconv.Itoa(c.h)+suffix, func(t *testing.T) {
				fast, ref := runTruth(t, build, rc, br, 0, w)
				want := func(row uint64) uint8 {
					switch row {
					case p1:
						return 3
					case p0:
						return 0
					}
					return 2
				}
				for side, pr := range map[string]*core.TwoLevel{"RunTrace": fast, "Run": ref} {
					for row := uint64(0); row <= mask; row++ {
						if got := pr.Table().State(int(row)); got != want(row) {
							t.Errorf("%s: counter %#x = %d, want %d", side, row, got, want(row))
							break
						}
					}
				}
				m, err := refmodel.New(rc)
				if err != nil {
					t.Fatal(err)
				}
				rows := [4]uint64{c.prefix, p1, c.prefix, p0}
				for i, br := range br {
					if st := m.Step(br); st.Pattern != rows[i%4] {
						t.Fatalf("refmodel: branch %d read pattern %#x, want %#x", i, st.Pattern, rows[i%4])
					}
				}
			})
		}
	}
}
