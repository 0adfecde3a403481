package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// openManager opens a one-worker manager over dir.
func openManager(t *testing.T, dir, name string) *Manager {
	t.Helper()
	m, err := NewManager(Config{DataDir: dir, Workers: 1, PublishName: name})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

// drain drains m, failing the test on error.
func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// waitJournal waits until m has journaled n lines since its last
// compaction.
func waitJournal(t *testing.T, m *Manager, n int) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if lines, _ := m.journal.stats(); lines >= n {
			return
		}
		if time.Now().After(deadline) {
			lines, _ := m.journal.stats()
			t.Fatalf("journal holds %d lines, want %d", lines, n)
		}
	}
}

// waitDone waits until every job is done.
func waitDone(t *testing.T, jobs ...*Job) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for _, j := range jobs {
		for st := j.State(); st != StateDone; st = j.State() {
			if st.terminal() || time.Now().After(deadline) {
				t.Fatalf("job %s is %s, want done", j.ID, st)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// readTable parses a data directory's jobs.json snapshot.
func readTable(t *testing.T, dir string) jobTable {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "jobs.json"))
	if err != nil {
		t.Fatalf("reading jobs.json: %v", err)
	}
	var tbl jobTable
	if err := json.Unmarshal(raw, &tbl); err != nil {
		t.Fatalf("decoding jobs.json: %v", err)
	}
	return tbl
}

// journalSize returns the size of dir's jobs.journal.
func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatalf("stat jobs.journal: %v", err)
	}
	return fi.Size()
}

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := copyDir(src, dst); err != nil {
		t.Fatalf("copying %s to %s: %v", src, dst, err)
	}
}

// copyDir is copyTree for goroutines other than the test's.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
}

// crashImage copies dir as a process killed now would leave it. The
// caller makes sure the manager writes nothing meanwhile.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	image := t.TempDir()
	copyTree(t, dir, image)
	return image
}

// restore replaces dir's contents with image's.
func restore(t *testing.T, image, dir string) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	copyTree(t, image, dir)
}

// TestJournalBytesPerJobFlat pins the job table's write cost: the
// three transitions of the 300th job append no more bytes than those
// of the 3rd, give or take the width of its numbers and timestamps,
// and jobs.json is not rewritten between open and drain.
func TestJournalBytesPerJobFlat(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, "test-journal-flat")
	defer drain(t, m)
	opened, err := os.ReadFile(filepath.Join(dir, "jobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Traces().Ingest(bytes.NewReader(encodeBPT1(t, genTrace(t, 500, 30))))
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 300
	var perJob [jobs + 1]int64
	for k := 1; k <= jobs; k++ {
		_, before := m.journal.stats()
		if _, _, err := m.Submit(JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4}, Warmup: k}); err != nil {
			t.Fatalf("Submit %d: %v", k, err)
		}
		waitJournal(t, m, 3*k) // submit, start, finish
		_, after := m.journal.stats()
		perJob[k] = after - before
	}
	if lines, _ := m.journal.stats(); lines != 3*jobs {
		t.Fatalf("journal holds %d lines for %d jobs, want 3 per job", lines, jobs)
	}
	// Job 300's seq and warmup each have two more digits, on each of
	// its three lines, and each of its six timestamps may keep up to
	// ten more characters of fractional second.
	if slack := int64(3*2*2 + 6*10); perJob[300] > perJob[3]+slack {
		t.Fatalf("job 300's transitions appended %d bytes, job 3's %d: grows with the table", perJob[300], perJob[3])
	}
	now, err := os.ReadFile(filepath.Join(dir, "jobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now, opened) {
		t.Fatalf("jobs.json was rewritten while the manager ran:\n%s", now)
	}
}

// TestJournalSurvivesCrash abandons a manager without a drain, as a
// killed process would, and opens a new one over its directory: the
// done job stays done and serves its result, and the running and the
// queued job come back queued, in submission order, and finish.
func TestJournalSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	m1 := openManager(t, dir, "test-journal-crash-1")
	m1.hookJobStart = func(ctx context.Context, j *Job) {
		if j.Spec.Warmup == 2 {
			<-ctx.Done() // hold the second job running until m1 stops
		}
	}
	info, err := m1.Traces().Ingest(bytes.NewReader(encodeBPT1(t, genTrace(t, 2000, 31))))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for w := 1; w <= 3; w++ {
		j, _, err := m1.Submit(JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4, 5}, Warmup: w})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, j.ID)
		if w == 1 {
			waitDone(t, j)
		}
	}
	// The first job's three lines, the second's submit and start, the
	// third's submit: from here on m1 writes nothing until it drains.
	waitJournal(t, m1, 6)
	want, err := m1.Result(ids[0])
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	image := crashImage(t, dir)
	drain(t, m1)
	restore(t, image, dir)

	m2 := openManager(t, dir, "test-journal-crash-2")
	defer drain(t, m2)
	// The open compacted the replayed table before any worker started.
	tbl := readTable(t, dir)
	var states []State
	for _, rec := range tbl.Jobs {
		states = append(states, rec.State)
		if rec.State == StateQueued && !rec.StartedAt.IsZero() {
			t.Errorf("requeued job %s keeps its start time", rec.ID)
		}
	}
	if tbl.Seq != 3 || !reflect.DeepEqual(states, []State{StateDone, StateQueued, StateQueued}) {
		t.Fatalf("snapshot after the crash = seq %d, states %v; want seq 3, [done queued queued]", tbl.Seq, states)
	}
	var jobs []*Job
	for _, j := range m2.Jobs() {
		jobs = append(jobs, j)
		if j.ID != ids[len(jobs)-1] {
			t.Fatalf("job %d after the crash is %s, want %s", len(jobs), j.ID, ids[len(jobs)-1])
		}
	}
	waitDone(t, jobs...)
	got, err := m2.Result(ids[0])
	if err != nil || !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Fatalf("done job's result after the crash = %v (err %v), want the cells it had", got, err)
	}
	for _, id := range ids[1:] {
		res, err := m2.Result(id)
		if err != nil || res.Partial || len(res.Cells) != res.CellsTotal {
			t.Fatalf("resumed job %s result = %+v, %v; want it whole", id, res, err)
		}
	}
}

// TestJournalConcurrentSubmitsReplayInOrder submits jobs from many
// goroutines at once, so their journal appends race each other and
// the workers' start and finish lines, then replays the journal
// without a drain: the jobs list in submission order, all done, and
// the next job takes the next ID.
func TestJournalConcurrentSubmitsReplayInOrder(t *testing.T) {
	dir := t.TempDir()
	m1 := openManager(t, dir, "test-journal-order-1")
	info, err := m1.Traces().Ingest(bytes.NewReader(encodeBPT1(t, genTrace(t, 500, 33))))
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 32
	var wg sync.WaitGroup
	for w := 1; w <= jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := m1.Submit(JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4}, Warmup: w}); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	wg.Wait()
	waitDone(t, m1.Jobs()...)
	waitJournal(t, m1, 3*jobs)
	image := crashImage(t, dir)
	drain(t, m1)
	restore(t, image, dir)

	m2 := openManager(t, dir, "test-journal-order-2")
	defer drain(t, m2)
	for i, j := range m2.Jobs() {
		if want := fmt.Sprintf("job-%06d", i+1); j.ID != want || j.State() != StateDone {
			t.Fatalf("job %d after replay = %s %s, want %s done", i+1, j.ID, j.State(), want)
		}
	}
	j, _, err := m2.Submit(JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{5}})
	if err != nil || j.ID != fmt.Sprintf("job-%06d", jobs+1) {
		t.Fatalf("next submit = %v, %v; want job %d", j, err, jobs+1)
	}
}

// TestJournalCancelsRaceStarts cancels every job from its own
// goroutine while two workers start them, so queued cancels race the
// workers' start transitions. Each job's journal lines, repeats merged,
// must follow one lifecycle — queued, then canceled; or queued,
// running, then done or canceled, where a start line that beat the
// submit line makes both read running — so no worker started a job
// whose cancel was committed, and its state once the workers settle
// must be its last line's.
func TestJournalCancelsRaceStarts(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Config{DataDir: dir, Workers: 2, PublishName: "test-journal-cancel-race"})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m)
	info, err := m.Traces().Ingest(bytes.NewReader(encodeBPT1(t, genTrace(t, 500, 34))))
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 24
	var wg sync.WaitGroup
	for w := 1; w <= jobs; w++ {
		j, _, err := m.Submit(JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4}, Warmup: w})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Cancel(j.ID); err != nil {
				t.Errorf("Cancel(%s): %v", j.ID, err)
			}
		}()
	}
	wg.Wait()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		settled := 0
		for _, j := range m.Jobs() {
			if j.State().terminal() {
				settled++
			}
		}
		if settled == jobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs settled", settled, jobs)
		}
	}
	lines, err := readJournal(m.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	paths := make(map[string]string)
	for _, l := range lines {
		if st := " " + string(l.Job.State); !strings.HasSuffix(paths[l.Job.ID], st) {
			paths[l.Job.ID] += st
		}
	}
	for _, j := range m.Jobs() {
		switch p := paths[j.ID]; strings.TrimPrefix(p, " queued") {
		case " canceled", " running done", " running canceled":
			if !strings.HasSuffix(p, " "+string(j.State())) {
				t.Errorf("job %s reads %s, its journal %q", j.ID, j.State(), p)
			}
		default:
			t.Errorf("job %s journaled %q", j.ID, p)
		}
	}
}

// TestJournalTornTail: a journal cut in the middle of its last line
// loads, losing only that one transition, while a corrupt line before
// the last fails the open with an error that names the file.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	m1 := openManager(t, dir, "test-journal-torn-1")
	info, err := m1.Traces().Ingest(bytes.NewReader(encodeBPT1(t, genTrace(t, 2000, 32))))
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 2; w++ {
		j, _, err := m1.Submit(JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4}, Warmup: w})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, j)
		waitJournal(t, m1, 3*w)
	}
	image := crashImage(t, dir)
	drain(t, m1)
	journal := filepath.Join(dir, "jobs.journal")

	t.Run("torn last line", func(t *testing.T) {
		restore(t, image, dir)
		raw, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		last := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
		if err := os.WriteFile(journal, raw[:last+(len(raw)-last)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		m2 := openManager(t, dir, "test-journal-torn-2")
		defer drain(t, m2)
		var states []State
		for _, rec := range readTable(t, dir).Jobs {
			states = append(states, rec.State)
		}
		// Only the second job's finish is lost: it comes back queued.
		if !reflect.DeepEqual(states, []State{StateDone, StateQueued}) {
			t.Fatalf("states after a torn tail = %v, want [done queued]", states)
		}
		waitDone(t, m2.Jobs()...)
	})

	t.Run("corrupt middle line", func(t *testing.T) {
		restore(t, image, dir)
		raw, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		second := bytes.IndexByte(raw, '\n') + 1
		raw[second] = 'x'
		if err := os.WriteFile(journal, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m2, err := NewManager(Config{DataDir: dir, Workers: 1, PublishName: "test-journal-torn-3"})
		if err == nil {
			drain(t, m2)
			t.Fatal("NewManager loaded a journal with a corrupt second line")
		}
		if msg := err.Error(); !strings.Contains(msg, journal) || !strings.Contains(msg, "line 2") {
			t.Fatalf("NewManager error = %q, want it to name %s and line 2", msg, journal)
		}
	})
}

// TestJournalLoadsWholeTableSnapshot opens a data directory written by
// a build that rewrote jobs.json on every transition and kept no
// journal (testdata/jobs-json-only: a done job with its result, and a
// job canceled while queued). The table loads unchanged, and the first
// open compacts it: the snapshot holds every job and the journal is
// empty.
func TestJournalLoadsWholeTableSnapshot(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "jobs-json-only"), dir)
	before, err := os.ReadFile(filepath.Join(dir, "jobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	m := openManager(t, dir, "test-journal-snapshot")
	defer drain(t, m)

	after, err := os.ReadFile(filepath.Join(dir, "jobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("the first open changed jobs.json:\n%s\nwant\n%s", after, before)
	}
	if n := journalSize(t, dir); n != 0 {
		t.Fatalf("journal holds %d bytes after the first open, want 0", n)
	}
	var got []string
	for _, j := range m.Jobs() {
		got = append(got, j.ID+" "+string(j.State()))
	}
	if want := []string{"job-000001 done", "job-000002 canceled"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("jobs = %v, want %v", got, want)
	}
	res, err := m.Result("job-000001")
	if err != nil || res.State != StateDone || len(res.Cells) != 5 {
		t.Fatalf("done job's result = %+v, %v; want its 5 cells", res, err)
	}
	if res, err := m.Result("job-000002"); err != nil || !res.Partial || len(res.Cells) != 0 {
		t.Fatalf("canceled job's result = %+v, %v; want an empty partial result", res, err)
	}
}
