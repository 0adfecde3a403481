package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"bpred/internal/atomicfile"
)

// readTree reads every regular file under dir, keyed by its path
// relative to dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	return files
}

// temps lists the files under dir whose names mark them as temps.
func temps(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for rel := range readTree(t, dir) {
		if strings.Contains(filepath.Base(rel), ".tmp") {
			out = append(out, rel)
		}
	}
	sort.Strings(out)
	return out
}

// storeView is what one tenant sees of a trace store: its listing,
// InfoFor of each digest it can see, and its quota usage.
type storeView struct {
	List   []TraceInfo          `json:"list"`
	Info   map[string]TraceInfo `json:"info"`
	Traces int                  `json:"traces"`
	Bytes  uint64               `json:"bytes"`
}

// viewsOf returns the views of the open mode and three tenants.
func viewsOf(st *TraceStore) map[string]storeView {
	views := make(map[string]storeView)
	for _, tenant := range []string{"", "alice", "bob", "carol"} {
		v := storeView{List: st.ListFor(tenant), Info: make(map[string]TraceInfo)}
		for _, in := range st.List() {
			if got, err := st.InfoFor(in.Digest, tenant); err == nil {
				v.Info[in.Digest] = got
			}
		}
		st.mu.Lock()
		v.Traces, v.Bytes = st.usageLocked(tenant)
		st.mu.Unlock()
		views[tenant] = v
	}
	return views
}

// TestTraceIndexLoadsFullEntryLayout opens a trace directory written
// by a build whose index.json restated every trace's metadata
// (testdata/traces-full-index: two BPT2 files, alice owning one and
// bob both), and compares every tenant's listing, InfoFor and quota
// usage with what that build reported (traces-full-index.views.json).
// The open writes nothing; the next change of ownership rewrites the
// index with owners only, and a reopen sees the same store. A trace
// file whose header does not parse fails the open.
func TestTraceIndexLoadsFullEntryLayout(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "traces-full-index"), dir)
	raw, err := os.ReadFile(filepath.Join("testdata", "traces-full-index.views.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]storeView
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, dir)

	st, err := NewTraceStore(dir, 1<<20, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := viewsOf(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("views of the full-entry layout = %+v\nwant %+v", got, want)
	}
	if after := readTree(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("opening the store rewrote its directory")
	}

	// carol adopts bob's trace by uploading its BPT2 file.
	shared := want["alice"].List[0]
	upload, err := os.ReadFile(filepath.Join(dir, shared.Digest+".bpt2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestAs(context.Background(), bytes.NewReader(upload), "carol", TraceQuota{}); err != nil {
		t.Fatal(err)
	}
	var index []map[string]any
	raw, err = os.ReadFile(filepath.Join(dir, "index.json"))
	if err == nil {
		err = json.Unmarshal(raw, &index)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range index {
		if len(e) != 2 || e["digest"] == nil || e["tenants"] == nil {
			t.Fatalf("rewritten index entry %v, want digest and tenants only", e)
		}
	}
	want["carol"] = storeView{
		List:   []TraceInfo{shared},
		Info:   map[string]TraceInfo{shared.Digest: shared},
		Traces: 1,
		Bytes:  shared.Bytes,
	}
	st2, err := NewTraceStore(dir, 1<<20, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := viewsOf(st2); !reflect.DeepEqual(got, want) {
		t.Fatalf("views after the rewrite = %+v\nwant %+v", got, want)
	}

	// A trace file whose header does not parse fails the open, named.
	bad := filepath.Join(dir, strings.Repeat("ab", 32)+".bpt2")
	if err := os.WriteFile(bad, []byte("BPT9"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTraceStore(dir, 1<<20, 0, 0); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("opening over a corrupt trace file: err = %v, want it to name %s", err, bad)
	}
}

// TestOpenUploadsWriteOnlyTraces pins the trace store's write cost:
// in the open mode, N uploads commit N renames, each a trace file,
// and change no other file of the data directory.
func TestOpenUploadsWriteOnlyTraces(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, "test-open-uploads")
	defer drain(t, m)
	before := readTree(t, dir)
	var renamed []string
	atomicfile.BeforeRename = func(_, path string) { renamed = append(renamed, path) }
	defer func() { atomicfile.BeforeRename = nil }()

	const uploads = 20
	want := make(map[string]bool)
	for k := 0; k < uploads; k++ {
		info, err := m.Traces().Ingest(bytes.NewReader(encodeBPT1(t, genTrace(t, 200, uint64(100+k)))))
		if err != nil {
			t.Fatal(err)
		}
		want[filepath.Join("traces", info.Digest+".bpt2")] = true
	}
	if len(renamed) != uploads {
		t.Fatalf("%d uploads committed %d renames: %v", uploads, len(renamed), renamed)
	}
	after := readTree(t, dir)
	for rel, raw := range after {
		if old, ok := before[rel]; !want[rel] && (!ok || !bytes.Equal(raw, old)) {
			t.Fatalf("%d uploads wrote %s", uploads, rel)
		}
	}
	if len(after) != len(before)+uploads {
		t.Fatalf("%d uploads took the directory from %d files to %d", uploads, len(before), len(after))
	}
}

// crashScript is the crash matrix's workload, one request at a time:
// an upload, a three-tier job at each of two warmups over it, an
// upload by a tenant, and a drain. It returns each job's result
// cells.
func crashScript(t *testing.T, m *Manager, traceA, traceB []byte) [][]CellResult {
	t.Helper()
	info, err := m.Traces().Ingest(bytes.NewReader(traceA))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	var cells [][]CellResult
	for _, warmup := range []int{0, 500} {
		j, _, err := m.Submit(JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4, 5, 6}, Warmup: warmup})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, j)
		res, err := m.Result(j.ID)
		if err != nil || res.Partial {
			t.Fatalf("job %s result = %+v, %v", j.ID, res, err)
		}
		cells = append(cells, res.Cells)
	}
	if _, err := m.Traces().IngestAs(context.Background(), bytes.NewReader(traceB), "alice", TraceQuota{}); err != nil {
		t.Fatalf("tenant upload: %v", err)
	}
	drain(t, m)
	return cells
}

// products keeps the files a replay must reproduce byte for byte: the
// traces and their index, the BPC1 ledgers and the job results. The
// job table and the incarnation counter carry times and restarts.
func products(files map[string][]byte) map[string][]byte {
	out := make(map[string][]byte)
	for rel, raw := range files {
		if dir := filepath.Dir(rel); dir == "traces" || dir == "checkpoints" && strings.HasSuffix(rel, ".bpc") || dir == "results" {
			out[rel] = raw
		}
	}
	return out
}

// TestCrashMatrix runs crashScript once while atomicfile's hook copies
// the data directory at every commit point, just before the rename —
// the image a process killed there leaves, its temp file included (the
// image before a trace's rename is a SIGKILL mid-upload). Every image
// must reopen with no temp left, and replaying the script over it must
// give the result cells, traces, ledgers and result files of the run
// that never crashed.
func TestCrashMatrix(t *testing.T) {
	traceA := encodeBPT1(t, genTrace(t, 3000, 41))
	traceB := encodeBPT1(t, genTrace(t, 1000, 42))
	dir, crashes := t.TempDir(), t.TempDir()
	var (
		mu     sync.Mutex
		images []string
		points []string
	)
	// The hook runs on whichever goroutine commits: the test's, a job
	// worker's or the embedded cluster worker's.
	atomicfile.BeforeRename = func(_, path string) {
		mu.Lock()
		defer mu.Unlock()
		image := filepath.Join(crashes, fmt.Sprint(len(images)))
		if err := copyDir(dir, image); err != nil {
			t.Errorf("copying the data directory: %v", err)
		}
		images, points = append(images, image), append(points, path)
	}
	defer func() { atomicfile.BeforeRename = nil }()
	want := crashScript(t, openManager(t, dir, "test-crash"), traceA, traceB)
	atomicfile.BeforeRename = nil
	wantFiles := products(readTree(t, dir))

	// The open's job table and incarnation, the upload, three ledger
	// flushes and a result per job, the tenant's trace and index, and
	// the drain's job table.
	if len(images) != 14 {
		t.Fatalf("the script committed %d files, want 14: %v", len(images), points)
	}
	for i, image := range images {
		t.Run(fmt.Sprintf("%02d-%s", i, filepath.Base(points[i])), func(t *testing.T) {
			crashed := temps(t, image)
			if len(crashed) != 1 {
				t.Fatalf("image holds temps %v, want the one being committed", crashed)
			}
			m, err := NewManager(Config{DataDir: image, Workers: 1, PublishName: "test-crash-replay"})
			if err != nil {
				t.Fatalf("reopening: %v", err)
			}
			// A resumed job may already be committing temps of its own.
			if _, err := os.Stat(filepath.Join(image, crashed[0])); !errors.Is(err, fs.ErrNotExist) {
				drain(t, m)
				t.Fatalf("the crashed commit's temp %s survived the reopen (stat: %v)", crashed[0], err)
			}
			if got := crashScript(t, m, traceA, traceB); !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed cells differ from the run that never crashed:\n%+v\nwant %+v", got, want)
			}
			if left := temps(t, image); len(left) != 0 {
				t.Errorf("temps left after the replay drained: %v", left)
			}
			got := products(readTree(t, image))
			for rel, raw := range wantFiles {
				if !bytes.Equal(got[rel], raw) {
					t.Errorf("%s differs from the run that never crashed", rel)
				}
			}
			if len(got) != len(wantFiles) {
				t.Errorf("replay left %d product files, the run that never crashed %d", len(got), len(wantFiles))
			}
		})
	}
}

// TestJobTurnsDoneOnlyOnceDurable stops a job at its result's commit
// point (atomicfile.BeforeRename on results/<id>.json). There the job
// must still read running, Result must answer ErrNotFinished, and the
// journal must hold no finish line for it. Once the job reads done,
// its finish line and its result file are already on disk.
func TestJobTurnsDoneOnlyOnceDurable(t *testing.T) {
	m := openManager(t, t.TempDir(), "test-durable-done")
	defer drain(t, m)
	info, err := m.Traces().Ingest(bytes.NewReader(encodeBPT1(t, genTrace(t, 2000, 43))))
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu        sync.Mutex
		committed []string
	)
	atomicfile.BeforeRename = func(_, path string) {
		if filepath.Base(filepath.Dir(path)) != "results" {
			return
		}
		id := strings.TrimSuffix(filepath.Base(path), ".json")
		mu.Lock()
		committed = append(committed, id)
		mu.Unlock()
		j, err := m.Job(id)
		if err != nil {
			t.Errorf("committing the result of %s: %v", id, err)
			return
		}
		if st := j.State(); st != StateRunning {
			t.Errorf("job %s reads %s while its result commits, want running", id, st)
		}
		if _, err := m.Result(id); !errors.Is(err, ErrNotFinished) {
			t.Errorf("Result(%s) while its result commits: %v, want ErrNotFinished", id, err)
		}
		lines, err := readJournal(m.journalPath())
		if err != nil {
			t.Error(err)
		}
		for _, l := range lines {
			if l.Job.ID == id && l.Job.State.terminal() {
				t.Errorf("job %s's %s line was journaled before its result", id, l.Job.State)
			}
		}
	}
	defer func() { atomicfile.BeforeRename = nil }()

	j, _, err := m.Submit(JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	mu.Lock()
	if len(committed) != 1 || committed[0] != j.ID {
		t.Errorf("results committed: %v, want [%s]", committed, j.ID)
	}
	mu.Unlock()
	if _, err := os.Stat(m.resultPath(j.ID)); err != nil {
		t.Errorf("job reads done before its result file exists: %v", err)
	}
	lines, err := readJournal(m.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	if last := lines[len(lines)-1].Job; last.ID != j.ID || last.State != StateDone || last.FinishedAt.IsZero() {
		t.Errorf("job reads done, journal's last line is %+v, want its done line", last)
	}
}
