package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"io"
	"net/http/httptest"
	"slices"
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

// fakeResult fabricates a completion settling configs under chunk id.
func fakeResult(id uint64, trace string, warmup uint64, configs []core.Config) ChunkResult {
	res := ChunkResult{Chunk: id, Trace: trace, Warmup: warmup}
	for _, cfg := range configs {
		res.Cells = append(res.Cells, fakeCell(cfg.Fingerprint()))
	}
	return res
}

// pullAndComplete leases the next chunk as workerID and completes it
// with fake cells, as a worker that never runs the simulator would.
func pullAndComplete(t *testing.T, coord *Coordinator, workerID string) *Chunk {
	t.Helper()
	ch, err := coord.Next(runCtx(t), workerID)
	if err != nil || ch == nil {
		t.Fatalf("Next = %+v, %v; want a chunk", ch, err)
	}
	if err := coord.Complete(context.Background(), workerID, fakeResult(ch.ID, ch.Trace, ch.Warmup, ch.Configs)); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	return ch
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
// worker next to a registered idle peer: with one queue there is no
// per-worker share, so the busy worker drains every chunk and the idle
// peer strands none.
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

	// Only "b" ever pulls; "a" is registered but idle.
	settled := 0
	for settled < len(configs) {
		ch := pullAndComplete(t, coord, "b")
		settled += len(ch.Configs)
	}
	if err := <-done; err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	if st := coord.Stats(); st.ChunksDispatched != uint64(len(configs)) {
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
	ch, err := coord.Next(ctx, "w1")
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if ch == nil {
		t.Fatal("Next returned no chunk")
	}
	waitUntil(t, 30*time.Second, "lease to expire", func() bool {
		return coord.Stats().Requeues >= 1
	})

	// The reclaimed chunk is redelivered — same ID, same cells.
	if again := pullAndComplete(t, coord, "w1"); again.ID != ch.ID || len(again.Configs) != len(ch.Configs) {
		t.Fatalf("redelivery = %+v, want chunk %d again", again, ch.ID)
	}
	if err := <-done; err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	if got := coord.Counters().Snapshot().ConfigsCompleted; got != uint64(len(configs)) {
		t.Fatalf("ConfigsCompleted = %d, want %d", got, len(configs))
	}
}

// TestLeaseUnderTwoNanoseconds runs the reaper at its tick floor: a
// 1 ns lease halves to a zero tick, which must neither crash the
// coordinator nor stop it re-queuing a held chunk or shutting down.
func TestLeaseUnderTwoNanoseconds(t *testing.T) {
	coord := NewCoordinator(Config{LeaseTimeout: 1})
	ctx := runCtx(t)
	if err := coord.Join(ctx, "w1"); err != nil {
		t.Fatalf("Join: %v", err)
	}
	configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, Tiers: []int{4}})
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunCells(ctx, testDigest(9), 0, configs, nil)
		done <- err
	}()
	if ch, err := coord.Next(ctx, "w1"); err != nil || ch == nil {
		t.Fatalf("Next = %+v, %v; want a chunk", ch, err)
	}
	waitUntil(t, 30*time.Second, "the held chunk to be re-queued", func() bool {
		return coord.Stats().Requeues >= 1
	})
	pullAndComplete(t, coord, "w1")
	if err := <-done; err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	if err := coord.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if _, err := coord.Next(ctx, "w1"); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Next after Stop: %v, want ErrShutdown", err)
	}
}

// TestDispatchTrimsSettledCells settles half of a queued chunk's cells
// with a completion from another coordinator incarnation before any
// worker pulls it: dispatch must hand out only the unsettled half, so
// no worker re-runs a settled cell and no duplicate reaches the
// ledger.
func TestDispatchTrimsSettledCells(t *testing.T) {
	coord := NewCoordinator(Config{})
	defer coord.Stop()
	ctx := runCtx(t)
	if err := coord.Join(ctx, "w1"); err != nil {
		t.Fatalf("Join: %v", err)
	}
	var configs []core.Config
	for rows := 0; rows < 6; rows++ {
		configs = append(configs, core.Config{Scheme: core.SchemeGShare, RowBits: rows, ColBits: 4})
	}
	d := testDigest(8)
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunCells(ctx, d, 0, configs, nil)
		done <- err
	}()
	waitUntil(t, 30*time.Second, "the chunk to be queued", func() bool {
		return coord.CellsInFlight() == len(configs)
	})

	stale := fakeResult((coord.Incarnation()+1)<<32|1, hex.EncodeToString(d[:]), 0, configs[:3])
	if err := coord.Complete(ctx, "zombie", stale); err != nil {
		t.Fatalf("stale Complete: %v", err)
	}
	ch := pullAndComplete(t, coord, "w1")
	if len(ch.Configs) != 3 {
		t.Fatalf("dispatched %d cells, want the 3 unsettled ones", len(ch.Configs))
	}
	for i, cfg := range ch.Configs {
		if cfg != configs[3+i] {
			t.Fatalf("dispatched cell %d = %+v, want %+v", i, cfg, configs[3+i])
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	st := coord.Stats()
	if st.DupCells != 0 || st.StaleCompletions != 1 {
		t.Fatalf("DupCells = %d, StaleCompletions = %d; want 0 and 1", st.DupCells, st.StaleCompletions)
	}
	if got := coord.Counters().Snapshot().ConfigsCompleted; got != uint64(len(configs)) {
		t.Fatalf("ConfigsCompleted = %d, want %d", got, len(configs))
	}
}

// TestCallSplitsAcrossWorkers pins the chunk rule with ChunkCells
// zero: one call's fresh cells become one contiguous chunk per joined
// worker, ⌈n/W⌉ cells each, dispatched oldest first.
func TestCallSplitsAcrossWorkers(t *testing.T) {
	coord := NewCoordinator(Config{})
	defer coord.Stop()
	ctx := runCtx(t)
	for _, id := range []string{"w1", "w2", "w3"} {
		if err := coord.Join(ctx, id); err != nil {
			t.Fatalf("Join %s: %v", id, err)
		}
	}
	var configs []core.Config
	for rows := 0; rows < 10; rows++ {
		configs = append(configs, core.Config{Scheme: core.SchemeGShare, RowBits: rows, ColBits: 4})
	}
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunCells(ctx, testDigest(10), 0, configs, nil)
		done <- err
	}()
	var got []core.Config
	var sizes []int
	for _, id := range []string{"w2", "w2", "w3"} {
		ch := pullAndComplete(t, coord, id)
		got = append(got, ch.Configs...)
		sizes = append(sizes, len(ch.Configs))
	}
	if err := <-done; err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	if !slices.Equal(sizes, []int{4, 4, 2}) {
		t.Fatalf("chunk sizes = %v, want [4 4 2]", sizes)
	}
	if !slices.Equal(got, configs) {
		t.Fatalf("chunks hold %+v, want the call's cells in order", got)
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
	hexDigest := hex.EncodeToString(d[:])
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

	ch, err := coord.Next(ctx, "w1")
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if ch == nil || len(ch.Configs) != len(configs) {
		t.Fatalf("Next = %+v, want one chunk of all %d cells", ch, len(configs))
	}
	res := fakeResult(ch.ID, ch.Trace, ch.Warmup, ch.Configs)
	res.Progress = obs.Snapshot{Branches: 1000, Chunks: 3}
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
