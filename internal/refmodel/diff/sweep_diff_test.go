package diff

import (
	"testing"

	"bpred/internal/core"
	"bpred/internal/refmodel"
	"bpred/internal/sim"
	"bpred/internal/trace"
)

// oracleScored replays one configuration through the reference model.
func oracleScored(t *testing.T, cfg core.Config, branches []trace.Branch, warmup int) Scored {
	t.Helper()
	rc, err := RefConfig(cfg)
	if err != nil {
		t.Fatalf("RefConfig(%s): %v", cfg.Fingerprint(), err)
	}
	m, err := refmodel.New(rc)
	if err != nil {
		t.Fatalf("oracle for %s: %v", cfg.Fingerprint(), err)
	}
	return ReplayOracle(m, branches, warmup)
}

// TestSweepAxesVsOracle runs whole sweep axes through the
// multi-config executor (sim.RunConfigs, one batch per worker) and
// demands every geometry's scored counts match an independent oracle
// replay — the differential contract extended over many
// configurations sharing one trace.
func TestSweepAxesVsOracle(t *testing.T) {
	tr := SynthTrace(11, 2500)
	axes := map[string][]core.Config{}
	for rb := 3; rb <= 8; rb++ {
		axes["gshare"] = append(axes["gshare"], core.Config{Scheme: core.SchemeGShare, RowBits: rb, ColBits: 2})
		axes["gas"] = append(axes["gas"], core.Config{Scheme: core.SchemeGAs, RowBits: rb, ColBits: 2})
		axes["path"] = append(axes["path"], core.Config{Scheme: core.SchemePath, RowBits: rb, ColBits: 2})
	}
	for cb := 3; cb <= 8; cb++ {
		axes["address"] = append(axes["address"], core.Config{Scheme: core.SchemeAddress, ColBits: cb})
	}
	for rb := 2; rb <= 5; rb++ {
		axes["pas-perfect"] = append(axes["pas-perfect"], core.Config{Scheme: core.SchemePAs, RowBits: rb, ColBits: 2})
	}
	for _, opt := range []sim.Options{{}, {Warmup: 211, Chunk: 97}} {
		for name, configs := range axes {
			got, err := sim.RunConfigs(configs, tr, opt)
			if err != nil {
				t.Fatalf("%s: RunConfigs: %v", name, err)
			}
			for i, cfg := range configs {
				want := oracleScored(t, cfg, tr.Branches, opt.Warmup)
				if got[i].Branches != want.Branches || got[i].Mispredicts != want.Mispredicts {
					t.Errorf("%s %s (warmup %d): engine %d/%d mispredicts, oracle %d/%d",
						name, cfg.Fingerprint(), opt.Warmup,
						got[i].Mispredicts, got[i].Branches, want.Mispredicts, want.Branches)
				}
			}
		}
	}
}
