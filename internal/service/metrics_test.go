package service

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"unicode"

	"bpred/internal/cluster"
)

var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|NaN|[+-]Inf)$`)
	helpLine   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeLine   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
)

// scrape fetches /metrics and returns its lines.
func scrape(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	return strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
}

// TestMetricsParseable validates the exposition format line by line:
// every line is a HELP, TYPE, or sample line; every sample's metric
// was TYPE-declared; and all samples of one metric are contiguous
// (the format's grouping rule).
func TestMetricsParseable(t *testing.T) {
	_, ts := newTestServer(t, nil)
	info := upload(t, ts, encodeBPT1(t, genTrace(t, 2000, 20)))
	ack, _ := submit(t, ts, JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4}})
	waitTerminal(t, ts, ack.ID)

	typed := map[string]bool{}
	closed := map[string]bool{} // metrics whose sample group has ended
	last := ""
	for i, line := range scrape(t, ts.URL) {
		switch {
		case typeLine.MatchString(line):
			typed[typeLine.FindStringSubmatch(line)[1]] = true
		case helpLine.MatchString(line):
		case sampleLine.MatchString(line):
			name := sampleLine.FindStringSubmatch(line)[1]
			if !typed[name] {
				t.Errorf("line %d: sample for undeclared metric %q", i, name)
			}
			if name != last {
				if closed[name] {
					t.Errorf("line %d: metric %q samples not contiguous", i, name)
				}
				if last != "" {
					closed[last] = true
				}
				last = name
			}
		default:
			t.Errorf("line %d: unparseable: %q", i, line)
		}
	}
	for _, want := range []string{
		"bpserved_up", "bpserved_jobs", "bpserved_queue_depth", "bpserved_traces",
		"bpserved_cells_in_flight", "bpsim_branches_total", "bpsim_configs_completed_total",
	} {
		if !typed[want] {
			t.Errorf("metric %q missing", want)
		}
	}
}

// TestMetricsDeterministic pins the ordering contract: with no
// intervening activity, two scrapes expose the same metrics with the
// same label sets in the same order (values of clock-derived series
// may differ).
func TestMetricsDeterministic(t *testing.T) {
	_, ts := newTestServer(t, nil)
	info := upload(t, ts, encodeBPT1(t, genTrace(t, 2000, 21)))
	ack, _ := submit(t, ts, JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4}})
	waitTerminal(t, ts, ack.ID)

	shape := func(lines []string) []string {
		out := make([]string, 0, len(lines))
		for _, l := range lines {
			if m := sampleLine.FindStringSubmatch(l); m != nil {
				out = append(out, m[1]+m[2]) // name + labels, value dropped
				continue
			}
			out = append(out, l)
		}
		return out
	}
	a := shape(scrape(t, ts.URL))
	b := shape(scrape(t, ts.URL))
	if len(a) != len(b) {
		t.Fatalf("scrape shapes differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scrape shape differs at line %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestMetricsExportClusterStats guards the cluster counters against
// going dark: every field of the coordinator's cluster.Stats must
// render as a bpcluster_<snake_case>_total counter and every field of
// the embedded worker's cluster.WorkerStats as a
// bpworker_<snake_case>_total counter, and the series must carry the
// live values.
func TestMetricsExportClusterStats(t *testing.T) {
	_, ts := newTestServer(t, nil)
	info := upload(t, ts, encodeBPT1(t, genTrace(t, 2000, 22)))
	ack, _ := submit(t, ts, JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4}})
	job := waitTerminal(t, ts, ack.ID)

	typed := map[string]bool{}
	samples := map[string]bool{}
	for _, line := range scrape(t, ts.URL) {
		if m := typeLine.FindStringSubmatch(line); m != nil {
			typed[m[1]] = m[2] == "counter"
		}
		samples[line] = true
	}
	for prefix, v := range map[string]any{"bpcluster_": cluster.Stats{}, "bpworker_": cluster.WorkerStats{}} {
		st := reflect.TypeOf(v)
		for i := 0; i < st.NumField(); i++ {
			field := st.Field(i).Name
			name := prefix + snakeCase(field) + "_total"
			if !typed[name] {
				t.Errorf("%s.%s has no /metrics counter %s", st, field, name)
			}
		}
	}
	// One single-tier job on a lone embedded worker is one chunk, and
	// the worker computes every one of its cells.
	for _, want := range []string{
		"bpcluster_chunks_dispatched_total 1",
		"bpworker_chunks_run_total 1",
		fmt.Sprintf("bpworker_cells_computed_total %d", job.CellsTotal),
	} {
		if !samples[want] {
			t.Errorf("/metrics lacks the live sample %q", want)
		}
	}
}

// snakeCase maps a Go field name onto its metric spelling
// (ChunksDispatched -> chunks_dispatched).
func snakeCase(s string) string {
	var b strings.Builder
	for i, r := range s {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}
