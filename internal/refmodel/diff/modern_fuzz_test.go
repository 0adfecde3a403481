package diff

// Differential fuzzing for the modern families (DESIGN.md §15): the
// same (trace seed, length, geometry, warmup, chunk) surface as the
// 1996 targets, with the per-family knobs — TAGE table counts,
// geometric history spans, tag widths, and aging periods; perceptron
// weight widths and thresholds; tournament chooser sizes — hashed
// from extra geometry words. `make diff-fuzz` and `make fuzz-smoke`
// run these alongside the classic targets.

import (
	"testing"

	"bpred/internal/core"
	"bpred/internal/rng"
)

func FuzzDiffTAGE(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, geom uint64, warmup, chunk uint16) {
		g := deriveGeom(geom, n, warmup, chunk)
		h := rng.Mix64(geom ^ 0x7a6e)
		minHist := int(h%8) + 1           // 1..8
		maxHist := minHist + int(h>>8%64) // minHist..minHist+63
		if maxHist > 64 {
			maxHist = 64
		}
		uperiod := int(h >> 16 % 1024) // 0 (default) .. 1023
		if h>>32&1 == 1 {
			uperiod = -1 // aging off
		}
		cfg := core.Config{Scheme: core.SchemeTAGE,
			RowBits: g.rowBits % 8, ColBits: g.colBits, Metered: g.metered,
			TAGE: core.TAGEParams{
				Tables:  int(h>>40%16) + 1, // 1..16
				MinHist: minHist,
				MaxHist: maxHist,
				TagBits: int(h>>48%16) + 1, // 1..16
				UPeriod: uperiod,
			}}
		fuzzCompare(t, cfg, seed, g)
	})
}

func FuzzDiffPerceptron(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, geom uint64, warmup, chunk uint16) {
		g := deriveGeom(geom, n, warmup, chunk)
		h := rng.Mix64(geom ^ 0x9eceb)
		cfg := core.Config{Scheme: core.SchemePerceptron,
			RowBits: int(h % 17), // history length 0..16
			ColBits: g.colBits, Metered: g.metered,
			Perceptron: core.PerceptronParams{
				WeightBits: int(h>>8%15) + 2,  // 2..16
				Threshold:  int(h >> 16 % 64), // 0 means the default fit
			}}
		fuzzCompare(t, cfg, seed, g)
	})
}

func FuzzDiffTournament(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, geom uint64, warmup, chunk uint16) {
		g := deriveGeom(geom, n, warmup, chunk)
		h := rng.Mix64(geom ^ 0x70c4)
		cfg := core.Config{Scheme: core.SchemeTournament,
			RowBits: g.rowBits, ColBits: g.colBits,
			ChooserBits: int(h % 11), // 0 (default = RowBits) .. 10
			Metered:     g.metered}
		fuzzCompare(t, cfg, seed, g)
	})
}
