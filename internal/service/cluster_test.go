package service

import (
	"context"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bpred/internal/checkpoint"
	"bpred/internal/cluster"
)

// cellKey is the single-flight identity of one simulation cell: the
// coordinator's cluster.Key, which also addresses one BPC1 cache slot
// (the ledger file is bound to (digest, warmup), its entries to the
// config fingerprint).
func cellKey(digest [32]byte, warmup int, fp string) string {
	return cluster.Key{Digest: digest, Warmup: uint64(warmup), Fingerprint: fp}.String()
}

// runSpecOn uploads wire to ts, runs spec over it to completion, and
// returns the result payload and final status.
func runSpecOn(t *testing.T, ts *httptest.Server, wire []byte, spec JobSpec) (JobResult, JobStatus) {
	t.Helper()
	info := upload(t, ts, wire)
	spec.Trace = info.Digest
	ack, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	st := waitTerminal(t, ts, ack.ID)
	if st.State != StateDone {
		t.Fatalf("job state = %s (error %q), want done", st.State, st.Error)
	}
	var res JobResult
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ack.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result status = %d", code)
	}
	return res, st
}

// TestExtraWorkersMatchAlone proves a fleet is transparent: a manager
// whose coordinator has two more in-process workers joined serves the
// exact same job result as a manager alone with its embedded worker.
func TestExtraWorkersMatchAlone(t *testing.T) {
	wire := encodeBPT1(t, genTrace(t, 12000, 21))
	spec := JobSpec{
		Scheme:  "gshare",
		Tiers:   []int{4, 5, 6},
		Warmup:  32,
		Metered: true,
	}

	_, tsAlone := newTestServer(t, nil)
	alone, _ := runSpecOn(t, tsAlone, wire, spec)

	// Same spec, cells spread by ring ownership over the embedded
	// worker and two more fed from the manager's own trace store.
	mFleet, tsFleet := newTestServer(t, nil)
	coord := mFleet.Coordinator()
	wctx, wcancel := context.WithCancel(context.Background())
	extra := map[string]*cluster.Worker{}
	done := make(map[string]chan struct{})
	for _, id := range []string{"svc-w1", "svc-w2"} {
		// Join before running so ring membership does not depend on
		// goroutine scheduling.
		if err := coord.Join(wctx, id); err != nil {
			t.Fatalf("Join %s: %v", id, err)
		}
		w := cluster.NewWorker(id, coord, mFleet.Traces())
		w.RetryDelay = 2 * time.Millisecond
		extra[id] = w
		ch := make(chan struct{})
		done[id] = ch
		go func() {
			defer close(ch)
			_ = w.Run(wctx)
		}()
	}
	t.Cleanup(func() {
		wcancel()
		for id, ch := range done {
			select {
			case <-ch:
			case <-time.After(30 * time.Second):
				t.Errorf("worker %s did not exit", id)
			}
		}
	})

	fleet, _ := runSpecOn(t, tsFleet, wire, spec)

	// The payloads must agree cell for cell — same fingerprints, same
	// metrics, same order — modulo the per-manager job ID.
	if alone.CellsTotal != fleet.CellsTotal {
		t.Fatalf("CellsTotal: alone %d, fleet %d", alone.CellsTotal, fleet.CellsTotal)
	}
	if alone.Partial || fleet.Partial {
		t.Fatalf("partial results: alone %v, fleet %v", alone.Partial, fleet.Partial)
	}
	if !reflect.DeepEqual(alone.Cells, fleet.Cells) {
		t.Fatalf("cell payloads differ between a lone manager and a fleet:\nalone %+v\nfleet %+v", alone.Cells, fleet.Cells)
	}

	// Every cell was accepted exactly once, and with no failures
	// injected the fleet computed each one exactly once.
	if got := coord.Counters().Snapshot().ConfigsCompleted; got != uint64(alone.CellsTotal) {
		t.Fatalf("coordinator ConfigsCompleted = %d, want %d", got, alone.CellsTotal)
	}
	computed := mFleet.local.Stats().CellsComputed
	for _, w := range extra {
		computed += w.Stats().CellsComputed
	}
	if computed != uint64(alone.CellsTotal) {
		t.Fatalf("fleet computed %d cells, want %d", computed, alone.CellsTotal)
	}
}

// TestOneNodeClusterDispatch pins the one-node cluster's scheduling on
// a fresh manager: a k-tier job dispatches exactly k chunks (one sim
// pass per tier), the embedded worker computes every cell once and
// keeps no replica of them, the job's progress carries the worker's
// simulation load, and resubmitting — the identical spec, or a new job
// over settled cells — dispatches nothing.
func TestOneNodeClusterDispatch(t *testing.T) {
	m, ts := newTestServer(t, nil)
	const branches = 4000
	info := upload(t, ts, encodeBPT1(t, genTrace(t, branches, 31)))
	// Tier 9's 10 cells must still form one chunk.
	spec := JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4, 5, 9}}
	ack, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	st := waitTerminal(t, ts, ack.ID)
	if st.State != StateDone {
		t.Fatalf("job = %s (%s)", st.State, st.Error)
	}
	cells := uint64(st.CellsTotal)

	if got := m.coord.Stats().ChunksDispatched; got != uint64(len(spec.Tiers)) {
		t.Fatalf("ChunksDispatched = %d, want one per tier (%d)", got, len(spec.Tiers))
	}
	ws := m.local.Stats()
	if ws.ChunksRun != uint64(len(spec.Tiers)) || ws.CellsComputed != cells || ws.CellsLocal != 0 {
		t.Fatalf("embedded worker stats = %+v, want %d chunks computing %d cells", ws, len(spec.Tiers), cells)
	}
	if n := m.local.ReplicaCells(); n != 0 {
		t.Fatalf("embedded worker holds %d replica cells, want 0", n)
	}
	// One ledger: the job's cells live in exactly one BPC1 file, where
	// bpsweep -resume looks for it.
	var bpc []string
	err := filepath.WalkDir(m.cfg.DataDir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".bpc") {
			bpc = append(bpc, path)
		}
		return err
	})
	if err != nil {
		t.Fatalf("walking the data directory: %v", err)
	}
	digest, _, _, err := spec.validate()
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	want := checkpoint.PathFor(filepath.Join(m.cfg.DataDir, "checkpoints"), digest, 0)
	if len(bpc) != 1 || bpc[0] != want {
		t.Fatalf("BPC1 files = %v, want exactly %s", bpc, want)
	}
	p := st.Progress
	if p.ConfigsCompleted != cells || p.ConfigsCached != 0 {
		t.Fatalf("job progress completed=%d cached=%d, want %d and 0", p.ConfigsCompleted, p.ConfigsCached, cells)
	}
	if p.Branches != cells*branches || p.Chunks == 0 {
		t.Fatalf("job progress branches=%d chunks=%d, want %d branches", p.Branches, p.Chunks, cells*branches)
	}

	// The identical spec collapses onto the finished job.
	again, code := submit(t, ts, spec)
	if code != http.StatusOK || !again.Deduped || again.ID != ack.ID {
		t.Fatalf("identical resubmit = %+v (%d), want a dedup onto %s", again, code, ack.ID)
	}
	// A new job over settled cells is served from the ledger.
	slice := spec
	slice.Tiers = []int{5}
	ack2, code := submit(t, ts, slice)
	if code != http.StatusAccepted {
		t.Fatalf("slice submit = %d", code)
	}
	st2 := waitTerminal(t, ts, ack2.ID)
	if st2.State != StateDone || st2.Progress.ConfigsCompleted != 0 || st2.Progress.ConfigsCached != uint64(st2.CellsTotal) {
		t.Fatalf("slice job = %s, progress %+v, want all %d cells cached", st2.State, st2.Progress, st2.CellsTotal)
	}
	if got := m.coord.Stats().ChunksDispatched; got != uint64(len(spec.Tiers)) {
		t.Fatalf("resubmits dispatched %d more chunks", got-uint64(len(spec.Tiers)))
	}
	if got := m.local.Stats().CellsComputed; got != cells {
		t.Fatalf("embedded worker computed %d cells after resubmits, want %d", got, cells)
	}
}

// TestLedgerFlushErrorFailsJob breaks the checkpoint directory under a
// ledger that is already open: the next job's cells cannot reach disk,
// so the job fails with the flush error instead of ending done, and a
// retry over the still-broken directory fails too. (The directory is
// swapped for a plain file, which stops even a superuser.)
func TestLedgerFlushErrorFailsJob(t *testing.T) {
	m, ts := newTestServer(t, nil)
	info := upload(t, ts, encodeBPT1(t, genTrace(t, 3000, 41)))
	spec := JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4}}
	ack, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	if st := waitTerminal(t, ts, ack.ID); st.State != StateDone {
		t.Fatalf("first job = %s (%s), want done", st.State, st.Error)
	}

	dir := filepath.Join(m.cfg.DataDir, "checkpoints")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatalf("RemoveAll: %v", err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	spec.Tiers = []int{5}
	for _, try := range []string{"first", "retry"} {
		ack, code := submit(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("%s submit = %d", try, code)
		}
		st := waitTerminal(t, ts, ack.ID)
		if st.State != StateFailed || !strings.Contains(st.Error, "checkpoint") {
			t.Fatalf("%s job over an unwritable ledger = %s (%q), want failed with the flush error", try, st.State, st.Error)
		}
	}
	if got := m.coord.Stats().FlushErrors; got != 2 {
		t.Fatalf("FlushErrors = %d, want 2", got)
	}
	// Mend the directory: the drain's final flush then lands.
	if err := os.Remove(dir); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
}
