package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/sim"
	"bpred/internal/sweep"
	"bpred/internal/trace"
)

// runCtx returns a generous outer deadline for fleet tests (the CI
// box can be a single slow core).
func runCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// fakeCell fabricates a settled metric for scheduler-only tests that
// never run the simulator.
func fakeCell(fp string) CellResult {
	return CellResult{Fingerprint: fp, Metrics: sim.Metrics{Name: "fake", Branches: 1}}
}

func TestClusterMatchesSingleNode(t *testing.T) {
	tr := testTrace(t, 20000, 1)
	o := chaosSweepOpts()
	refCSV, refBPC := reference(t, tr, o)

	dir := t.TempDir()
	coord := NewCoordinator(Config{Dir: dir, ChunkCells: 3})
	f := startFleet(t, coord, tracesFor(tr), []string{"w1", "w2", "w3"}, nil)

	configs := sweep.Configs(o)
	ms, err := coord.RunCells(runCtx(t), tr.Digest(), uint64(o.Sim.Warmup), configs, nil)
	if err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	if len(ms) != len(configs) {
		t.Fatalf("got %d metrics, want %d", len(ms), len(configs))
	}
	for i := range ms {
		if ms[i].Name == "" {
			t.Fatalf("cell %d (%s) came back unsettled", i, configs[i].Fingerprint())
		}
	}

	// Exactly-once: fleet-wide acceptances equal the distinct cells.
	snap := coord.Counters().Snapshot()
	if snap.ConfigsCompleted != uint64(len(configs)) {
		t.Fatalf("ConfigsCompleted = %d, want exactly %d", snap.ConfigsCompleted, len(configs))
	}
	// And with no failures injected, execution was exactly-once too.
	var computed uint64
	for _, w := range f.workers {
		computed += w.Stats().CellsComputed
	}
	if computed != uint64(len(configs)) {
		t.Fatalf("fleet computed %d cells, want %d (no failures were injected)", computed, len(configs))
	}

	// Piggybacked replication reached the non-computing peers.
	waitUntil(t, 30*time.Second, "replicas to install", func() bool {
		var n uint64
		for _, w := range f.workers {
			n += w.Stats().ReplicasInstalled
		}
		return n > 0
	})

	// A second pass is served wholly from the ledger.
	before := coord.Counters().Snapshot().ConfigsCached
	ms2, err := coord.RunCells(runCtx(t), tr.Digest(), uint64(o.Sim.Warmup), configs, nil)
	if err != nil {
		t.Fatalf("second RunCells: %v", err)
	}
	for i := range ms2 {
		if ms2[i] != ms[i] {
			t.Fatalf("second pass changed cell %d: %+v vs %+v", i, ms2[i], ms[i])
		}
	}
	snap2 := coord.Counters().Snapshot()
	if snap2.ConfigsCompleted != snap.ConfigsCompleted {
		t.Fatalf("second pass re-completed cells: %d -> %d", snap.ConfigsCompleted, snap2.ConfigsCompleted)
	}
	if snap2.ConfigsCached != before+uint64(len(configs)) {
		t.Fatalf("second pass cached %d cells, want %d", snap2.ConfigsCached-before, len(configs))
	}

	f.stopAll()
	if err := coord.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	assertByteIdentity(t, coord, dir, tr, o, refCSV, refBPC)
}

// TestWorkStealing drives the coordinator directly as a single greedy
// worker: chunks routed to an idle peer must come off that peer's
// queue tail as steals.
func TestWorkStealing(t *testing.T) {
	coord := NewCoordinator(Config{ChunkCells: 1})
	defer coord.Stop()
	ctx := runCtx(t)
	if err := coord.Join(ctx, "a"); err != nil {
		t.Fatalf("Join a: %v", err)
	}
	if err := coord.Join(ctx, "b"); err != nil {
		t.Fatalf("Join b: %v", err)
	}

	configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, Tiers: []int{4, 5, 6, 7, 8, 9}})
	d := testDigest(3)
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunCells(ctx, d, 0, configs, nil)
		done <- err
	}()

	// Only "b" ever pulls; "a" is registered but idle, so its share of
	// the ring's chunks is only reachable by stealing.
	settled := 0
	for settled < len(configs) {
		w, err := coord.Next(ctx, "b")
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if w.Chunk == nil {
			continue
		}
		res := ChunkResult{Chunk: w.Chunk.ID, Trace: w.Chunk.Trace, Warmup: w.Chunk.Warmup}
		for _, cfg := range w.Chunk.Configs {
			res.Cells = append(res.Cells, fakeCell(cfg.Fingerprint()))
		}
		if err := coord.Complete(ctx, "b", res); err != nil {
			t.Fatalf("Complete: %v", err)
		}
		settled += len(w.Chunk.Configs)
	}
	if err := <-done; err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	st := coord.Stats()
	if st.Steals == 0 {
		t.Fatal("idle peer's chunks were drained without a single steal")
	}
	if st.ChunksDispatched != uint64(len(configs)) {
		t.Fatalf("ChunksDispatched = %d, want %d (ChunkCells=1, no requeues)", st.ChunksDispatched, len(configs))
	}
}

func TestLeaseExpiryRequeues(t *testing.T) {
	coord := NewCoordinator(Config{ChunkCells: 100, LeaseTimeout: 50 * time.Millisecond})
	defer coord.Stop()
	ctx := runCtx(t)
	if err := coord.Join(ctx, "w1"); err != nil {
		t.Fatalf("Join: %v", err)
	}

	configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, Tiers: []int{6}})
	d := testDigest(4)
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunCells(ctx, d, 0, configs, nil)
		done <- err
	}()

	// Lease the single chunk and sit on it: the reaper must take it
	// back.
	w, err := coord.Next(ctx, "w1")
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if w.Chunk == nil {
		t.Fatal("Next returned no chunk")
	}
	first := w.Chunk.ID
	waitUntil(t, 30*time.Second, "lease to expire", func() bool {
		return coord.Stats().Requeues >= 1
	})

	// The reclaimed chunk is redelivered — same ID, same cells.
	w2, err := coord.Next(ctx, "w1")
	if err != nil {
		t.Fatalf("second Next: %v", err)
	}
	if w2.Chunk == nil || w2.Chunk.ID != first {
		t.Fatalf("redelivery = %+v, want chunk %d again", w2.Chunk, first)
	}
	res := ChunkResult{Chunk: first, Trace: w2.Chunk.Trace, Warmup: w2.Chunk.Warmup}
	for _, cfg := range w2.Chunk.Configs {
		res.Cells = append(res.Cells, fakeCell(cfg.Fingerprint()))
	}
	if err := coord.Complete(ctx, "w1", res); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	if got := coord.Counters().Snapshot().ConfigsCompleted; got != uint64(len(configs)) {
		t.Fatalf("ConfigsCompleted = %d, want %d", got, len(configs))
	}
}

// TestChunkFailurePropagates covers the worker-side failure path: a
// worker that cannot fetch the trace reports the chunk failed, and
// every waiter sees the error instead of hanging.
func TestChunkFailurePropagates(t *testing.T) {
	coord := NewCoordinator(Config{ChunkCells: 100})
	defer coord.Stop()
	startFleet(t, coord, memTraces{}, []string{"w1"}, nil) // provider has no traces

	configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, Tiers: []int{4}})
	_, err := coord.RunCells(runCtx(t), testDigest(5), 0, configs, nil)
	if err == nil {
		t.Fatal("RunCells succeeded with no trace available anywhere")
	}
	if !strings.Contains(err.Error(), "failed") {
		t.Fatalf("error %q does not name the failed chunk", err)
	}
	if got := coord.Counters().Snapshot().ConfigsCompleted; got != 0 {
		t.Fatalf("ConfigsCompleted = %d after a failed chunk, want 0", got)
	}
}

func TestShutdownErrors(t *testing.T) {
	coord := NewCoordinator(Config{})
	ctx := runCtx(t)
	if _, err := coord.Next(ctx, "ghost"); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("Next before Join: %v, want ErrUnknownWorker", err)
	}
	if err := coord.Join(ctx, ""); err == nil {
		t.Fatal("Join accepted an empty worker id")
	}
	if err := coord.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := coord.Join(ctx, "w"); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Join after Stop: %v, want ErrShutdown", err)
	}
	if _, err := coord.Next(ctx, "w"); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Next after Stop: %v, want ErrShutdown", err)
	}
	if err := coord.Complete(ctx, "w", ChunkResult{}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Complete after Stop: %v, want ErrShutdown", err)
	}
	cfgs := []core.Config{{Scheme: core.SchemeGShare, RowBits: 2, ColBits: 4}}
	if _, err := coord.RunCells(ctx, testDigest(6), 0, cfgs, nil); !errors.Is(err, ErrShutdown) {
		t.Fatalf("RunCells after Stop: %v, want ErrShutdown", err)
	}
	if err := coord.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
}

// encodeBPT1 renders a trace back to its canonical wire form.
func encodeBPT1(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, tr.Name, tr.Instructions, uint64(tr.Len()))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, b := range tr.Branches {
		if err := w.WriteBranch(b); err != nil {
			t.Fatalf("WriteBranch: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("closing trace writer: %v", err)
	}
	return buf.Bytes()
}

// memOpener serves encoded traces from memory (the HTTP handler's
// TraceOpener seam).
type memOpener map[string][]byte

func (m memOpener) Open(digest string) (io.ReadCloser, error) {
	b, ok := m[digest]
	if !ok {
		return nil, errors.New("memOpener: no such trace")
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

// TestHTTPTransportEndToEnd runs real workers against the coordinator
// through the full HTTP stack — long-poll dispatch, JSON chunk
// results, trace replication with digest verification — and holds the
// result to the same byte-identity bar as the in-process transport.
func TestHTTPTransportEndToEnd(t *testing.T) {
	tr := testTrace(t, 20000, 2)
	o := chaosSweepOpts()
	refCSV, refBPC := reference(t, tr, o)

	dir := t.TempDir()
	coord := NewCoordinator(Config{Dir: dir, ChunkCells: 3})
	d := tr.Digest()
	hexDigest := Key{Digest: d}.String()[:64]
	srv := httptest.NewServer(Handler(coord, memOpener{hexDigest: encodeBPT1(t, tr)}))
	defer srv.Close()

	wctx, wcancel := context.WithCancel(context.Background())
	var dones []chan struct{}
	for _, id := range []string{"h1", "h2"} {
		w := NewWorker(id,
			&HTTPClient{Base: srv.URL, PollWait: 2 * time.Second},
			&RemoteTraces{Base: srv.URL})
		w.RetryDelay = 2 * time.Millisecond
		done := make(chan struct{})
		dones = append(dones, done)
		go func() {
			defer close(done)
			_ = w.Run(wctx)
		}()
	}
	stopWorkers := func() {
		wcancel()
		for _, done := range dones {
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Error("HTTP worker did not exit")
			}
		}
	}
	defer stopWorkers()

	configs := sweep.Configs(o)
	ms, err := coord.RunCells(runCtx(t), d, uint64(o.Sim.Warmup), configs, nil)
	if err != nil {
		t.Fatalf("RunCells over HTTP: %v", err)
	}
	for i := range ms {
		if ms[i].Name == "" {
			t.Fatalf("cell %d unsettled after HTTP run", i)
		}
	}
	if got := coord.Counters().Snapshot().ConfigsCompleted; got != uint64(len(configs)) {
		t.Fatalf("ConfigsCompleted = %d, want %d", got, len(configs))
	}

	stopWorkers()
	if err := coord.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	assertByteIdentity(t, coord, dir, tr, o, refCSV, refBPC)
}

// TestDuplicateDeliveryMergesProgressOnce delivers one chunk's
// completion twice. Only the delivery that settles the lease merges
// the worker's progress, into the coordinator's counters and the
// enqueuing caller's, so the duplicate leaves Branches unchanged.
func TestDuplicateDeliveryMergesProgressOnce(t *testing.T) {
	coord := NewCoordinator(Config{})
	defer coord.Stop()
	ctx := runCtx(t)
	if err := coord.Join(ctx, "w1"); err != nil {
		t.Fatalf("Join: %v", err)
	}
	configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, Tiers: []int{5}})
	var caller obs.Counters
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunCells(ctx, testDigest(7), 0, configs, &caller)
		done <- err
	}()

	w, err := coord.Next(ctx, "w1")
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if w.Chunk == nil || len(w.Chunk.Configs) != len(configs) {
		t.Fatalf("Next = %+v, want one chunk of all %d cells", w.Chunk, len(configs))
	}
	res := ChunkResult{
		Chunk: w.Chunk.ID, Trace: w.Chunk.Trace, Warmup: w.Chunk.Warmup,
		Progress: obs.Snapshot{Branches: 1000, Chunks: 3},
	}
	for _, cfg := range w.Chunk.Configs {
		res.Cells = append(res.Cells, fakeCell(cfg.Fingerprint()))
	}
	if err := coord.Complete(ctx, "w1", res); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	want := obs.Snapshot{Branches: 1000, Chunks: 3, ConfigsCompleted: uint64(len(configs))}
	check := func(when string) {
		t.Helper()
		for name, cnt := range map[string]*obs.Counters{"coordinator": coord.Counters(), "caller": &caller} {
			s := cnt.Snapshot()
			if s.Branches != want.Branches || s.Chunks != want.Chunks || s.ConfigsCompleted != want.ConfigsCompleted {
				t.Fatalf("%s: %s counters = %+v, want %+v", when, name, s, want)
			}
		}
	}
	check("after delivery")

	if err := coord.Complete(ctx, "w1", res); err != nil {
		t.Fatalf("duplicate Complete: %v", err)
	}
	if got := coord.Stats().DupCells; got != uint64(len(configs)) {
		t.Fatalf("DupCells = %d, want %d", got, len(configs))
	}
	check("after the duplicate")
}
