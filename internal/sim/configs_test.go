package sim

import (
	"testing"

	"bpred/internal/core"
)

// configAxes enumerates sweep-axis-shaped configuration lists per
// scheme family, plus a mixed list interleaving metered, wide-counter,
// and finite-first-level configurations, and the modern families.
func configAxes() map[string][]core.Config {
	axes := map[string][]core.Config{}
	var gshare, gas, address, path, pasPerfect []core.Config
	for rb := 4; rb <= 10; rb++ {
		gshare = append(gshare, core.Config{Scheme: core.SchemeGShare, RowBits: rb, ColBits: 2})
		gas = append(gas, core.Config{Scheme: core.SchemeGAs, RowBits: rb, ColBits: 3})
	}
	for cb := 4; cb <= 10; cb++ {
		address = append(address, core.Config{Scheme: core.SchemeAddress, ColBits: cb})
	}
	for rb := 4; rb <= 8; rb++ {
		path = append(path, core.Config{Scheme: core.SchemePath, RowBits: rb, ColBits: 3})
	}
	// A second path width.
	path = append(path,
		core.Config{Scheme: core.SchemePath, RowBits: 6, ColBits: 3, PathBits: 3},
		core.Config{Scheme: core.SchemePath, RowBits: 8, ColBits: 3, PathBits: 3})
	for rb := 2; rb <= 6; rb++ {
		pasPerfect = append(pasPerfect, core.Config{Scheme: core.SchemePAs, RowBits: rb, ColBits: 2})
	}
	axes["gshare"] = gshare
	axes["gas"] = gas
	axes["address"] = address
	axes["path"] = path
	axes["pas-perfect"] = pasPerfect

	mixed := []core.Config{
		{Scheme: core.SchemeGShare, RowBits: 8, ColBits: 2, Metered: true},
		{Scheme: core.SchemeGAs, RowBits: 6, ColBits: 3, CounterBits: 3},
		{Scheme: core.SchemePAs, RowBits: 5, ColBits: 2,
			FirstLevel: core.FirstLevel{Kind: core.FirstLevelSetAssoc, Entries: 128, Ways: 4}},
		{Scheme: core.SchemePAs, RowBits: 5, ColBits: 2,
			FirstLevel: core.FirstLevel{Kind: core.FirstLevelUntagged, Entries: 128}},
		{Scheme: core.SchemeGShare, RowBits: 5, ColBits: 2, CounterBits: 1},
	}
	mixed = append(mixed, gshare...)
	mixed = append(mixed, pasPerfect...)
	mixed = append(mixed, core.Config{Scheme: core.SchemeAddress, ColBits: 9})
	axes["mixed"] = mixed

	// The tagged, perceptron, and tournament kernels, metered and not;
	// the stream tests also drive this axis through BPT2/BPT1
	// streamed execution.
	axes["modern"] = []core.Config{
		{Scheme: core.SchemeTAGE, RowBits: 6, ColBits: 7},
		{Scheme: core.SchemeTAGE, RowBits: 5, ColBits: 6, Metered: true,
			TAGE: core.TAGEParams{Tables: 3, MinHist: 2, MaxHist: 24, TagBits: 6, UPeriod: 256}},
		{Scheme: core.SchemePerceptron, RowBits: 12, ColBits: 7},
		{Scheme: core.SchemePerceptron, RowBits: 8, ColBits: 5, Metered: true,
			Perceptron: core.PerceptronParams{WeightBits: 6, Threshold: 12}},
		{Scheme: core.SchemeTournament, RowBits: 8, ColBits: 8},
		{Scheme: core.SchemeTournament, RowBits: 7, ColBits: 6, ChooserBits: 5, Metered: true},
	}
	return axes
}

// TestFusedEquivalence is the correctness contract of the
// multi-config entry point: for every axis, RunConfigs — every
// configuration on its fused predict-and-train kernel, the batch
// fanned out over workers — is bit-identical to the generic reference
// loop, across warmup and chunk-boundary edge cases.
func TestFusedEquivalence(t *testing.T) {
	tr := kernelTrace(21, 20_011)
	opts := []Options{
		{},
		{Warmup: 1037},
		{Warmup: 3, Chunk: 511},
		{Warmup: 20_011},           // trace ends inside warmup
		{Warmup: 25_000, Chunk: 7}, // warmup exceeds the trace
	}
	for name, configs := range configAxes() {
		for oi, opt := range opts {
			t.Run(name, func(t *testing.T) {
				got, err := RunConfigs(configs, tr, opt)
				if err != nil {
					t.Fatalf("opt %d: %v", oi, err)
				}
				for i, c := range configs {
					want := Run(c.MustBuild(), tr.NewSource(), opt)
					if got[i] != want {
						t.Errorf("opt %d config %d (%s): RunConfigs diverges from generic reference\n got: %+v\nwant: %+v",
							oi, i, c.Fingerprint(), got[i], want)
					}
				}
			})
		}
	}
}
