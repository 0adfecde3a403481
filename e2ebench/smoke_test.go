package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"bpred/internal/core"
	"bpred/internal/sweep"
)

// benchmarkFile is the part of ../BENCHMARK.json the harness must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload at smoke size in both modes and checks
// that it verifies its results and prints exactly the metrics
// BENCHMARK.json declares, with the declared units. warm_cache is not
// in BENCHMARK.json (README.md says why) but runs here all the same.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bf.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, w := range bf.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the harness lacks", w.Name)
		}
	}
	for _, w := range specs {
		for _, mode := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+mode, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.name, "-seed", "7", "-smoke", "-trace", mode, "-data", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for name, unit := range want[mode] {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("missing metric %s", name)
					} else if got.Unit != unit {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[mode][name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if mode == "1" {
					ratio := 0.0
					if w.name == "warm_cache" {
						ratio = 1
					}
					if got := res.Metrics["obs.cache_hit_ratio"].Value; got != ratio {
						t.Errorf("obs.cache_hit_ratio = %v, want %v", got, ratio)
					}
				}
			})
		}
	}
}

// TestUnknownWorkload checks the usage error path prints no result.
func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope", "-data", t.TempDir()}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

// TestWarmupReferences checks the prefix-difference references against
// a direct sweep at every warmup, not just the first one the harness
// checks on each run.
func TestWarmupReferences(t *testing.T) {
	prog, err := program()
	if err != nil {
		t.Fatal(err)
	}
	tr := prog.Emit(20000, 5)
	warmups := []int{1, 300, 4097}
	for _, scheme := range []core.Scheme{core.SchemeGShare, core.SchemeTAGE, core.SchemePerceptron, core.SchemeTournament} {
		o := sweep.Options{Scheme: scheme, MinBits: 4, MaxBits: 7}
		refs, err := warmupReferences(o, tr, warmups)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range warmups {
			o.Sim.Warmup = w
			direct, err := sweepCells(o, tr)
			if err != nil {
				t.Fatal(err)
			}
			for fp, m := range direct {
				if refs[w][fp] != m {
					t.Errorf("%v warmup %d %s: derived %+v, direct %+v", scheme, w, fp, refs[w][fp], m)
				}
			}
		}
	}
}

// TestTierLists checks warm_cache's tier lists are distinct and equal
// in cell count, past the point where subsets run out.
func TestTierLists(t *testing.T) {
	lists, err := tierLists(4, 16, 6, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, l := range lists {
		key := fmt.Sprint(l)
		if seen[key] {
			t.Fatalf("tier list %v repeats", l)
		}
		seen[key] = true
		if len(l) != 6 || cellsOf(l) != cellsOf(lists[0]) {
			t.Fatalf("tier list %v: %d tiers, %d cells; first has %d cells", l, len(l), cellsOf(l), cellsOf(lists[0]))
		}
	}
	if _, err := tierLists(4, 6, 2, 100, 3); err == nil {
		t.Fatal("asking for more lists than exist succeeded")
	}
}

// TestTailOf checks the tail sits at p90 or above and that run lengths
// whose tail would sit near the median are refused.
func TestTailOf(t *testing.T) {
	var ds []time.Duration
	for i := 200; i >= 1; i-- {
		ds = append(ds, time.Duration(i))
	}
	if v, pct, err := tailOf(ds); err != nil || v != 190 || pct != 95 {
		t.Fatalf("tailOf(1..200) = %v at p%v (%v), want 190 at p95", v, pct, err)
	}
	if v, pct, err := tailOf(ds[100:]); err != nil || v != 90 || pct != 90 {
		t.Fatalf("tailOf(1..100) = %v at p%v (%v), want 90 at p90", v, pct, err)
	}
	for _, n := range []int{16, 99} {
		if _, _, err := tailOf(ds[200-n:]); err == nil {
			t.Errorf("tailOf of %d ops succeeded", n)
		}
	}
}
