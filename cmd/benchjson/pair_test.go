package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// roundsText renders one series per name, each run once per round as
// `go test -bench` prints it, with the rounds appended in order.
func roundsText(series map[string][]float64, order []string) string {
	var sb strings.Builder
	sb.WriteString("goos: linux\npkg: bpred\n")
	rounds := len(series[order[0]])
	for i := 0; i < rounds; i++ {
		for _, name := range order {
			fmt.Fprintf(&sb, "%s-2  \t     100\t  1000000 ns/op\t %.2f MB/s\n", name, series[name][i])
		}
	}
	sb.WriteString("PASS\nok  \tbpred\t1.0s\n")
	return sb.String()
}

func writeRounds(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3.25}, {0.5, 5.5}, {0.75, 7.75}, {1, 10},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{3, 5, 9}, 0.5); got != 5 {
		t.Errorf("odd-length median = %v, want 5", got)
	}
	if got := quantile([]float64{42}, 0.25); got != 42 {
		t.Errorf("single-value quartile = %v, want 42", got)
	}
}

// TestPairStatsRepeatedNames checks that every repeat of a name is one
// round, rounds pair by position, and the statistics come out of the
// paired values.
func TestPairStatsRepeatedNames(t *testing.T) {
	order := []string{"BenchmarkA", "BenchmarkB"}
	base := parseText(t, roundsText(map[string][]float64{
		"BenchmarkA": {100, 110, 90, 105, 95},
		"BenchmarkB": {50, 50, 50, 50, 50},
	}, order))
	change := parseText(t, roundsText(map[string][]float64{
		"BenchmarkA": {200, 220, 180, 210, 190},
		"BenchmarkB": {50, 49, 51, 50, 50},
	}, order))
	stats := pairStats(base, change)
	if len(stats) != 2 {
		t.Fatalf("stats %+v", stats)
	}
	a := stats[0]
	if a.name != "BenchmarkA" || a.rounds != 5 || a.wins != 5 || a.losses != 0 {
		t.Fatalf("A: %+v", a)
	}
	if a.baseMed != 100 || a.baseQ1 != 95 || a.baseQ3 != 105 || a.changeMed != 200 || a.ratio != 2 {
		t.Fatalf("A statistics: %+v", a)
	}
	b := stats[1]
	if b.wins != 1 || b.losses != 1 || b.ratio != 1 || b.failed() {
		t.Fatalf("B: %+v", b)
	}
}

// TestPairFailureRule pins both halves of the rule: a series must lose
// at least 8 of 10 rounds AND have its median below the base's lower
// quartile.
func TestPairFailureRule(t *testing.T) {
	base := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name   string
		change []float64
		fail   bool
	}{
		{"unchanged", base, false},
		{"20% slower", scaled(0.8), true},
		{"faster", scaled(1.2), false},
		// Slower in 7 of 10 rounds: below the 8-of-10 bar.
		{"seven losses", []float64{70, 70, 70, 70, 70, 70, 70, 200, 200, 200}, false},
		// Slower in every round, but within the base's quartiles.
		{"inside the quartiles", scaled(0.999), false},
	}
	// Over 5 rounds the bar scales to 4 losses.
	fiveRounds := []struct {
		change []float64
		fail   bool
	}{
		{[]float64{70, 70, 70, 70, 200}, true},
		{[]float64{70, 70, 70, 200, 200}, false},
	}
	for _, c := range fiveRounds {
		stats := pairStats(
			parseText(t, roundsText(map[string][]float64{"BenchmarkX": base[:5]}, []string{"BenchmarkX"})),
			parseText(t, roundsText(map[string][]float64{"BenchmarkX": c.change}, []string{"BenchmarkX"})))
		if got := stats[0].failed(); got != c.fail {
			t.Errorf("5 rounds %v: failed() = %v, want %v (%+v)", c.change, got, c.fail, stats[0])
		}
	}
	for _, c := range cases {
		stats := pairStats(
			parseText(t, roundsText(map[string][]float64{"BenchmarkX": base}, []string{"BenchmarkX"})),
			parseText(t, roundsText(map[string][]float64{"BenchmarkX": c.change}, []string{"BenchmarkX"})))
		if got := stats[0].failed(); got != c.fail {
			t.Errorf("%s: failed() = %v, want %v (%+v)", c.name, got, c.fail, stats[0])
		}
	}
}

// TestRunPairExitCodes drives -pair end to end: only the planted
// slowdown fails, a one-sided series is skipped, and usage errors
// exit 2.
func TestRunPairExitCodes(t *testing.T) {
	order := []string{"BenchmarkFast", "BenchmarkSlow"}
	base := map[string][]float64{
		"BenchmarkFast": {100, 101, 99, 100, 102, 98, 100, 101, 99, 100},
		"BenchmarkSlow": {100, 101, 99, 100, 102, 98, 100, 101, 99, 100},
	}
	change := map[string][]float64{
		"BenchmarkFast": {101, 100, 100, 99, 101, 99, 101, 100, 100, 101},
		"BenchmarkSlow": {80, 81, 79, 80, 82, 78, 80, 81, 79, 80},
	}
	basePath := writeRounds(t, "base.txt", roundsText(base, order))
	changePath := writeRounds(t, "change.txt", roundsText(change, order)+
		"BenchmarkNew-2  \t 10\t 100 ns/op\t 5.00 MB/s\n")

	code, stdout, stderr := runCLI(t, []string{"-pair", basePath, changePath}, "")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, line := range strings.Split(stdout, "\n") {
		slow := strings.Contains(line, "SLOWER")
		if strings.HasPrefix(line, "BenchmarkSlow") != slow {
			t.Errorf("verdict on the wrong series: %q", line)
		}
	}
	if strings.Contains(stdout, "BenchmarkNew") {
		t.Errorf("a series the base never ran was paired:\n%s", stdout)
	}

	if code, _, stderr := runCLI(t, []string{"-pair", basePath, basePath}, ""); code != 0 {
		t.Fatalf("identical runs: exit = %d, stderr:\n%s", code, stderr)
	}
	if code, _, _ := runCLI(t, []string{"-pair", basePath}, ""); code != 2 {
		t.Fatalf("one file: exit = %d, want 2", code)
	}
	if code, _, _ := runCLI(t, []string{"-pair", basePath, filepath.Join(t.TempDir(), "missing")}, ""); code != 1 {
		t.Fatalf("missing file: exit = %d, want 1", code)
	}
}
