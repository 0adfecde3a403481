// Command benchjson converts `go test -bench` text output into a
// stable JSON document so benchmark results can be tracked across
// PRs (see the bench-sim Makefile target, which emits
// BENCH_sim.json).
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkKernels . | go run ./cmd/benchjson > BENCH_sim.json
//
// Non-benchmark lines are ignored, so the full `go test` output can
// be piped in unfiltered. Output of `go test -count N` repeats every
// series N times; benchjson writes one entry per series holding the
// median of each metric, the lower and upper quartiles (q1, q3) and
// the run count, so the document carries its own run-to-run noise.
//
// A series is one benchmark at one GOMAXPROCS: output of go test -cpu
// 1,2 holds two series per benchmark, and every mode keeps them apart.
// A series' speed is its MB/s, or for a benchmark that sets no bytes
// its ops per second (1e9 / ns/op).
//
// With -check, benchjson instead compares the run on stdin against a
// checked-in baseline and exits non-zero if any benchmark's median
// speed regressed by more than -tolerance percent:
//
//	go test -run '^$' -bench . . | go run ./cmd/benchjson -check -baseline BENCH_sim.json -tolerance 15
//
// Baseline entries written before medians were recorded hold one run
// and compare the same way. Benchmarks present in the run but absent
// from the baseline are reported as new and never fail the gate;
// baseline entries missing from the run are warned about but
// tolerated, so a scoped -bench filter can gate a subset.
//
// With -pair base.txt change.txt, benchjson compares two files of
// repeated runs round by round instead (make bench-pair): per series
// the base median and quartiles, the change median, the median ratio
// and the rounds won. A series slower in at least 8 of 10 rounds with
// its median below the base's lower quartile exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark series. Metrics holds every reported value
// keyed by its unit (ns/op, MB/s, misp%, B/op, allocs/op, ...): as
// parsed, one line's values; as written, the median over Runs runs,
// with the quartiles in Q1 and Q3 when there was more than one.
// Documents written before runs were counted carry one run and no
// Runs field.
type Result struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	Runs       int                `json:"runs,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Q1         map[string]float64 `json:"q1,omitempty"`
	Q3         map[string]float64 `json:"q3,omitempty"`
}

// Doc is the emitted document.
type Doc struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole program behind an exit code: 0 success, 1 parse or
// gate failure, 2 usage error. Factored off main so tests can drive
// the exact CLI surface (flags, streams, exit codes) in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	check := fs.Bool("check", false, "compare stdin against -baseline instead of emitting JSON")
	baseline := fs.String("baseline", "BENCH_sim.json", "baseline JSON document for -check")
	tolerance := fs.Float64("tolerance", 15, "max tolerated MB/s regression for -check, in percent")
	pair := fs.Bool("pair", false, "compare two files of repeated runs, base.txt change.txt, round by round")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pair {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchjson -pair base.txt change.txt")
			return 2
		}
		return runPair(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	doc, err := parse(bufio.NewScanner(stdin))
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	doc = summarize(doc)
	if *check {
		base, err := readDoc(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		rep := compare(doc, base, *tolerance)
		for _, line := range rep.notes {
			fmt.Fprintln(stderr, "benchjson:", line)
		}
		for _, line := range rep.failures {
			fmt.Fprintln(stderr, "benchjson: FAIL:", line)
		}
		if len(rep.failures) > 0 {
			return 1
		}
		fmt.Fprintf(stderr, "benchjson: %d benchmarks within %.0f%% of %s\n",
			rep.compared, *tolerance, *baseline)
		return 0
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	return 0
}

// throughputUnit is the metric the regression gate compares. MB/s is
// what every simulation benchmark reports (1 branch record = 1 byte
// of SetBytes, so MB/s reads as Mbranches/s).
const throughputUnit = "MB/s"

// speed returns the value the gates compare, higher is faster: MB/s,
// or ops/s for a benchmark that sets no bytes.
func speed(metrics map[string]float64) (v float64, unit string, ok bool) {
	if v := metrics[throughputUnit]; v > 0 {
		return v, throughputUnit, true
	}
	if ns := metrics["ns/op"]; ns > 0 {
		return 1e9 / ns, "ops/s", true
	}
	return 0, "", false
}

// series identifies one benchmark series: its name with Go's -P
// suffix stripped, and the GOMAXPROCS that suffix gave. go test -cpu
// 1,2 runs every benchmark once per CPU count, and the two are
// different series.
type series struct {
	name  string
	procs int
}

func (r Result) series() series { return series{r.Name, r.Procs} }

// summarize folds repeated runs of a series (go test -count N) into
// one Result per series, in first-seen order: every metric's median,
// plus its quartiles when there was more than one run.
func summarize(doc Doc) Doc {
	runs := map[series][]Result{}
	var order []series
	for _, r := range doc.Results {
		if _, ok := runs[r.series()]; !ok {
			order = append(order, r.series())
		}
		runs[r.series()] = append(runs[r.series()], r)
	}
	out := doc
	out.Results = make([]Result, 0, len(order))
	for _, id := range order {
		rs := runs[id]
		values := map[string][]float64{}
		iters := make([]float64, len(rs))
		for i, r := range rs {
			iters[i] = float64(r.Iterations)
			for unit, v := range r.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		s := Result{Name: id.name, Procs: id.procs, Iterations: int64(quantile(iters, 0.5)),
			Runs: len(rs), Metrics: map[string]float64{}}
		if len(rs) > 1 {
			s.Q1, s.Q3 = map[string]float64{}, map[string]float64{}
		}
		for unit, vs := range values {
			s.Metrics[unit] = quantile(vs, 0.5)
			if len(rs) > 1 {
				s.Q1[unit], s.Q3[unit] = quantile(vs, 0.25), quantile(vs, 0.75)
			}
		}
		out.Results = append(out.Results, s)
	}
	return out
}

// report is the outcome of one baseline comparison.
type report struct {
	compared int      // benchmarks present in both documents with MB/s
	notes    []string // informational: new benchmarks, missing metrics
	failures []string // regressions beyond tolerance
}

// compare checks every current result against the baseline document,
// median against median (a single-run baseline entry is its own
// median). A series compares against the baseline entry of its own
// name and GOMAXPROCS; failing that, against the baseline's one entry
// of that name, so a host with another CPU count still gates against
// the checked-in document. Only speed regressions fail: a benchmark
// missing from the baseline is new (noted, not failed), and baseline
// entries absent from the current run are noted so a narrowed -bench
// filter is visible. When the run holds several CPU counts, every
// message names the series' count.
func compare(cur, base Doc, tolerance float64) report {
	var rep report
	baseBy := map[series]Result{}
	byName := map[string][]Result{}
	for _, r := range base.Results {
		baseBy[r.series()] = r
		byName[r.Name] = append(byName[r.Name], r)
	}
	cpus := map[int]bool{}
	for _, r := range cur.Results {
		cpus[r.Procs] = true
	}
	label := func(r Result) string {
		if len(cpus) > 1 {
			return fmt.Sprintf("%s (-cpu %d)", r.Name, r.Procs)
		}
		return r.Name
	}
	used := map[series]bool{}
	for _, r := range cur.Results {
		b, ok := baseBy[r.series()]
		if !ok && len(byName[r.Name]) == 1 {
			b, ok = byName[r.Name][0], true
		}
		if !ok {
			rep.notes = append(rep.notes, fmt.Sprintf("%s: not in baseline (new benchmark)", label(r)))
			continue
		}
		used[b.series()] = true
		cv, unit, cok := speed(r.Metrics)
		bv, bunit, bok := speed(b.Metrics)
		if !cok || !bok || unit != bunit {
			rep.notes = append(rep.notes, fmt.Sprintf("%s: no %s or ns/op to compare", label(r), throughputUnit))
			continue
		}
		rep.compared++
		drop := (bv - cv) / bv * 100
		if drop > tolerance {
			rep.failures = append(rep.failures, fmt.Sprintf(
				"%s: %.2f %s vs baseline %.2f %s (-%.1f%%, tolerance %.0f%%)",
				label(r), cv, unit, bv, unit, drop, tolerance))
		}
	}
	for _, r := range base.Results {
		if !used[r.series()] {
			rep.notes = append(rep.notes, fmt.Sprintf("%s: in baseline but not in this run", label(r)))
		}
	}
	return rep
}

// readDoc loads a JSON document previously emitted by benchjson.
func readDoc(path string) (Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return Doc{}, err
	}
	defer f.Close()
	var doc Doc
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return Doc{}, fmt.Errorf("%s: %v", path, err)
	}
	return doc, nil
}

func parse(sc *bufio.Scanner) (Doc, error) {
	var doc Doc
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		r, ok := parseLine(line)
		if ok {
			doc.Results = append(doc.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	if len(doc.Results) == 0 {
		return doc, fmt.Errorf("no benchmark lines found on stdin")
	}
	return doc, nil
}

// parseLine decodes one `BenchmarkX-P  N  v1 u1  v2 u2 ...` line.
func parseLine(line string) (Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Result{}, false
	}
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Result{}, false
	}
	name, procs := splitProcs(f[0])
	iter, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Procs: procs, Iterations: iter, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	return r, true
}

// splitProcs strips the trailing -P GOMAXPROCS suffix Go appends to
// benchmark names.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	p, err := strconv.Atoi(name[i+1:])
	if err != nil || p <= 0 {
		return name, 1
	}
	return name[:i], p
}
