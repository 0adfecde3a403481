package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// countText renders `go test -count N` output: each round prints every
// series once, MB/s and ns/op as given.
func countText(series map[string][][2]float64, order []string) string {
	var sb strings.Builder
	sb.WriteString("goos: linux\npkg: bpred\n")
	for i := range series[order[0]] {
		for _, name := range order {
			v := series[name][i]
			if v[1] > 0 {
				fmt.Fprintf(&sb, "%s-2  \t     100\t  %.0f ns/op\t %.2f MB/s\n", name, v[0], v[1])
			} else {
				fmt.Fprintf(&sb, "%s-2  \t     100\t  %.0f ns/op\n", name, v[0])
			}
		}
	}
	sb.WriteString("PASS\nok  \tbpred\t1.0s\n")
	return sb.String()
}

// TestSummarizeMediansAndQuartiles folds five runs per series into one
// entry with the median, the quartiles and the run count.
func TestSummarizeMediansAndQuartiles(t *testing.T) {
	doc := summarize(parseText(t, countText(map[string][][2]float64{
		"BenchmarkA": {{500, 100}, {400, 125}, {1000, 50}, {450, 110}, {520, 96}},
		"BenchmarkB": {{20, 0}, {22, 0}, {21, 0}, {40, 0}, {19, 0}},
	}, []string{"BenchmarkA", "BenchmarkB"})))
	if len(doc.Results) != 2 || doc.Results[0].Name != "BenchmarkA" || doc.Results[1].Name != "BenchmarkB" {
		t.Fatalf("results %+v", doc.Results)
	}
	a := doc.Results[0]
	if a.Runs != 5 || a.Procs != 2 || a.Iterations != 100 {
		t.Fatalf("A: %+v", a)
	}
	if a.Metrics["MB/s"] != 100 || a.Q1["MB/s"] != 96 || a.Q3["MB/s"] != 110 {
		t.Fatalf("A MB/s median %v q1 %v q3 %v, want 100 96 110", a.Metrics["MB/s"], a.Q1["MB/s"], a.Q3["MB/s"])
	}
	if a.Metrics["ns/op"] != 500 || a.Q1["ns/op"] != 450 || a.Q3["ns/op"] != 520 {
		t.Fatalf("A ns/op median %v q1 %v q3 %v", a.Metrics["ns/op"], a.Q1["ns/op"], a.Q3["ns/op"])
	}
	if b := doc.Results[1]; b.Metrics["ns/op"] != 21 || b.Q1["ns/op"] != 20 || b.Q3["ns/op"] != 22 {
		t.Fatalf("B: %+v", b)
	}
	// One run: the value itself, no quartiles.
	one := summarize(parseText(t, benchText)).Results[0]
	if one.Runs != 1 || one.Q1 != nil || one.Q3 != nil || one.Metrics["MB/s"] != 182.61 {
		t.Fatalf("single run: %+v", one)
	}
}

// TestRunEmitsSummary checks the JSON a -count 3 run writes: one entry
// per series, its median and quartiles.
func TestRunEmitsSummary(t *testing.T) {
	text := countText(map[string][][2]float64{"BenchmarkA": {{1, 10}, {1, 30}, {1, 20}}}, []string{"BenchmarkA"})
	code, stdout, stderr := runCLI(t, nil, text)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var doc Doc
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 1 {
		t.Fatalf("results %+v", doc.Results)
	}
	r := doc.Results[0]
	if r.Runs != 3 || r.Metrics["MB/s"] != 20 || r.Q1["MB/s"] != 15 || r.Q3["MB/s"] != 25 {
		t.Fatalf("entry %+v", r)
	}
}

// TestCheckComparesMedians gates a -count 5 run by its median: one
// slow outlier run passes, a slow median fails.
func TestCheckComparesMedians(t *testing.T) {
	path := writeBaseline(t, Doc{Results: []Result{{
		Name: "BenchmarkA", Procs: 2, Iterations: 100, Runs: 5,
		Metrics: map[string]float64{"MB/s": 100}, Q1: map[string]float64{"MB/s": 95}, Q3: map[string]float64{"MB/s": 105},
	}}})
	outlier := countText(map[string][][2]float64{"BenchmarkA": {{1, 98}, {1, 40}, {1, 101}, {1, 99}, {1, 97}}}, []string{"BenchmarkA"})
	if code, _, stderr := runCLI(t, []string{"-check", "-baseline", path}, outlier); code != 0 {
		t.Fatalf("one slow run failed the gate (exit %d): %s", code, stderr)
	}
	slow := countText(map[string][][2]float64{"BenchmarkA": {{1, 80}, {1, 40}, {1, 101}, {1, 79}, {1, 78}}}, []string{"BenchmarkA"})
	code, _, stderr := runCLI(t, []string{"-check", "-baseline", path}, slow)
	if code != 1 || !strings.Contains(stderr, "FAIL: BenchmarkA: 79.00 MB/s vs baseline 100.00 MB/s") {
		t.Fatalf("slow median: exit %d, stderr %s", code, stderr)
	}
}

// TestCheckAcceptsSingleRunBaseline gates against a document written
// before runs were counted: its one value is the median.
func TestCheckAcceptsSingleRunBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"goos":"linux","results":[{"name":"BenchmarkA","procs":2,"iterations":100,"metrics":{"MB/s":100,"ns/op":1000}}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	run := countText(map[string][][2]float64{"BenchmarkA": {{1000, 99}, {1000, 95}, {1000, 102}}}, []string{"BenchmarkA"})
	code, _, stderr := runCLI(t, []string{"-check", "-baseline", path}, run)
	if code != 0 || !strings.Contains(stderr, "1 benchmarks within") {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	slow := countText(map[string][][2]float64{"BenchmarkA": {{1000, 50}, {1000, 60}, {1000, 55}}}, []string{"BenchmarkA"})
	if code, _, stderr := runCLI(t, []string{"-check", "-baseline", path}, slow); code != 1 {
		t.Fatalf("slow run passed an old baseline (exit %d): %s", code, stderr)
	}
}

// TestSpeedFallsBackToNsPerOp gates a benchmark that sets no bytes by
// its ops per second, in -check and in -pair.
func TestSpeedFallsBackToNsPerOp(t *testing.T) {
	path := writeBaseline(t, Doc{Results: []Result{{Name: "BenchmarkLedger", Procs: 2, Iterations: 1,
		Metrics: map[string]float64{"ns/op": 1000}}}})
	slow := countText(map[string][][2]float64{"BenchmarkLedger": {{1500, 0}}}, []string{"BenchmarkLedger"})
	code, _, stderr := runCLI(t, []string{"-check", "-baseline", path}, slow)
	if code != 1 || !strings.Contains(stderr, "666666.67 ops/s vs baseline 1000000.00 ops/s") {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	order := []string{"BenchmarkLedger"}
	base := parseText(t, countText(map[string][][2]float64{"BenchmarkLedger": {{1000, 0}, {1100, 0}, {900, 0}}}, order))
	change := parseText(t, countText(map[string][][2]float64{"BenchmarkLedger": {{500, 0}, {550, 0}, {450, 0}}}, order))
	stats := pairStats(base, change)
	if len(stats) != 1 || stats[0].unit != "ops/s" || stats[0].ratio != 2 || stats[0].wins != 3 {
		t.Fatalf("pair stats %+v", stats)
	}
}

// cpuText renders `go test -cpu 1,2 -count N` output of one benchmark
// in Go's order: every run at one CPU, then every run at two; the name
// carries no -P suffix at one CPU.
func cpuText(name string, mbs map[int][]float64) string {
	var sb strings.Builder
	sb.WriteString("goos: linux\npkg: bpred\n")
	for _, procs := range []int{1, 2} {
		label := name
		if procs != 1 {
			label = fmt.Sprintf("%s-%d", name, procs)
		}
		for _, v := range mbs[procs] {
			fmt.Fprintf(&sb, "%s  \t     100\t  1000 ns/op\t %.2f MB/s\n", label, v)
		}
	}
	sb.WriteString("PASS\nok  \tbpred\t1.0s\n")
	return sb.String()
}

// TestSeriesKeyedByProcs checks that a -cpu 1,2 -count 3 run is two
// series in every mode: summarize writes one entry per CPU count with
// its own median and quartiles, -check compares each against the
// baseline entry of its own CPU count, and -pair pairs each with its
// own rounds.
func TestSeriesKeyedByProcs(t *testing.T) {
	text := cpuText("BenchmarkA", map[int][]float64{1: {10, 12, 11}, 2: {20, 24, 22}})
	doc := summarize(parseText(t, text))
	if len(doc.Results) != 2 {
		t.Fatalf("summarize gave %d series, want 2: %+v", len(doc.Results), doc.Results)
	}
	for i, want := range []struct {
		procs       int
		med, q1, q3 float64
	}{{1, 11, 10.5, 11.5}, {2, 22, 21, 23}} {
		r := doc.Results[i]
		if r.Name != "BenchmarkA" || r.Procs != want.procs || r.Runs != 3 ||
			r.Metrics["MB/s"] != want.med || r.Q1["MB/s"] != want.q1 || r.Q3["MB/s"] != want.q3 {
			t.Errorf("series %d = %+v, want procs %d median %v q1 %v q3 %v", i, r, want.procs, want.med, want.q1, want.q3)
		}
	}

	// Against a baseline holding both CPU counts, a slower two-CPU run
	// fails only its own series.
	path := writeBaseline(t, Doc{Results: []Result{
		{Name: "BenchmarkA", Procs: 1, Iterations: 100, Metrics: map[string]float64{"MB/s": 11}},
		{Name: "BenchmarkA", Procs: 2, Iterations: 100, Metrics: map[string]float64{"MB/s": 22}},
	}})
	slow := cpuText("BenchmarkA", map[int][]float64{1: {10, 12, 11}, 2: {12, 13, 11}})
	code, _, stderr := runCLI(t, []string{"-check", "-baseline", path}, slow)
	if code != 1 || !strings.Contains(stderr, "FAIL: BenchmarkA (-cpu 2): 12.00 MB/s vs baseline 22.00 MB/s") ||
		strings.Contains(stderr, "BenchmarkA (-cpu 1): ") {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if code, _, stderr := runCLI(t, []string{"-check", "-baseline", path}, text); code != 0 ||
		!strings.Contains(stderr, "2 benchmarks within") {
		t.Fatalf("unchanged run: exit %d, stderr:\n%s", code, stderr)
	}

	stats := pairStats(parseText(t, text), parseText(t, slow))
	if len(stats) != 2 || stats[0].procs != 1 || stats[1].procs != 2 {
		t.Fatalf("pair stats %+v", stats)
	}
	if stats[0].ratio != 1 || stats[0].failed() || stats[1].losses != 3 || !stats[1].failed() {
		t.Fatalf("pair stats %+v: want the one-CPU series even, the two-CPU series slower", stats)
	}
}
