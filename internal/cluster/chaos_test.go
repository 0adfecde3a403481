package cluster

// The failure-injection scenarios. Every scenario ends at the same
// bar: the coordinator's BPC1 ledger and the Surface assembled from
// it are byte-identical to an undisturbed single-node sweep, and
// ConfigsCompleted equals the number of distinct cells — acceptance
// was exactly-once no matter how execution was disrupted.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"bpred/internal/sim"
	"bpred/internal/sweep"
)

// TestChaosWorkerKilledMidChunk kills two of three workers at
// deterministic points — one inside chunk execution before the
// kernels run, one at the moment its completion would leave the node
// — and requires the survivor to finish the sweep with no cell lost
// and none double-counted.
func TestChaosWorkerKilledMidChunk(t *testing.T) {
	tr := testTrace(t, 20000, 3)
	o := chaosSweepOpts()
	refCSV, refBPC := reference(t, tr, o)

	dir := t.TempDir()
	coord := NewCoordinator(Config{Dir: dir, ChunkCells: 3})

	configs := sweep.Configs(o)
	type runResult struct {
		ms  []sim.Metrics
		err error
	}
	done := make(chan runResult, 1)
	go func() {
		ms, err := coord.RunCells(runCtx(t), tr.Digest(), uint64(o.Sim.Warmup), configs)
		done <- runResult{ms, err}
	}()

	// Phase 1: only the two victims run, so both are guaranteed to
	// take work before dying.
	victims := startFleet(t, coord, tracesFor(tr), []string{"dies-mid-chunk", "dies-on-complete"},
		func(id string, l *chaosLink, w *Worker) {
			switch id {
			case "dies-mid-chunk":
				// Die inside the first chunk, after the lease is held
				// but before any kernel output exists.
				var once sync.Once
				kill := l.kill
				w.hookChunk = func(context.Context, *Chunk) { once.Do(kill) }
			case "dies-on-complete":
				// Compute the first chunk fully, then die with the
				// completion undelivered — the classic lost-result
				// crash. The cells must be re-executed elsewhere.
				l.killOn = 1
			}
		})
	victims.waitDead("dies-mid-chunk")
	victims.waitDead("dies-on-complete")
	if got := coord.Stats().Requeues; got < 2 {
		t.Fatalf("Requeues = %d, want >= 2 (each victim died holding a lease)", got)
	}

	// Phase 2: the survivor finishes the sweep.
	f := startFleet(t, coord, tracesFor(tr), []string{"survivor"}, nil)
	res := <-done
	if res.err != nil {
		t.Fatalf("RunCells: %v", res.err)
	}
	for i := range res.ms {
		if res.ms[i].Name == "" {
			t.Fatalf("cell %d unsettled after worker deaths", i)
		}
	}

	// The lost chunk was re-executed (at-least-once execution) ...
	computed := f.workers["survivor"].Stats().CellsComputed +
		victims.workers["dies-on-complete"].Stats().CellsComputed
	if computed <= uint64(len(configs)) {
		t.Fatalf("fleet computed %d cells, want > %d (the dropped completion forces re-execution)", computed, len(configs))
	}
	// ... but acceptance stayed exactly-once.
	if got := coord.Counters().Snapshot().ConfigsCompleted; got != uint64(len(configs)) {
		t.Fatalf("ConfigsCompleted = %d, want exactly %d", got, len(configs))
	}

	f.stopAll()
	if err := coord.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	assertByteIdentity(t, coord, dir, tr, o, refCSV, refBPC)
}

// TestChaosCoordinatorRestart partitions the fleet mid-sweep, stops
// the coordinator, brings up a fresh one over the same ledger
// directory, heals the partition, and re-submits. Workers recover via
// ErrUnknownWorker -> re-join; cells settled before the restart come
// off disk; acceptances across both incarnations sum to exactly the
// distinct cell count.
func TestChaosCoordinatorRestart(t *testing.T) {
	tr := testTrace(t, 20000, 4)
	o := chaosSweepOpts()
	refCSV, refBPC := reference(t, tr, o)

	dir := t.TempDir()
	coord1 := NewCoordinator(Config{Dir: dir, ChunkCells: 2})
	f := startFleet(t, coord1, tracesFor(tr), []string{"w1", "w2"}, nil)

	configs := sweep.Configs(o)
	digest := tr.Digest()
	rctx, rcancel := context.WithCancel(context.Background())
	defer rcancel()
	phase1 := make(chan error, 1)
	go func() {
		_, err := coord1.RunCells(rctx, digest, uint64(o.Sim.Warmup), configs)
		phase1 <- err
	}()

	// Let the sweep make real progress, then sever everything.
	waitUntil(t, 60*time.Second, "first cells to settle", func() bool {
		return coord1.Counters().Snapshot().ConfigsCompleted >= 5
	})
	f.partitionAll(true)
	rcancel()
	if err := <-phase1; err != nil && !errors.Is(err, context.Canceled) {
		// nil is possible when the fleet outran the partition.
		t.Fatalf("interrupted RunCells: %v", err)
	}
	if err := coord1.Stop(); err != nil {
		t.Fatalf("stopping first coordinator: %v", err)
	}
	// Read the first incarnation's tally only after Stop: a completion
	// already past the chaos link's partition check may still land
	// until then. Complete refuses work once the coordinator is closed,
	// so the count is final here.
	completed1 := coord1.Counters().Snapshot().ConfigsCompleted

	// "Restart": a fresh coordinator over the same ledger directory.
	coord2 := NewCoordinator(Config{Dir: dir, ChunkCells: 2})
	f.swapCoordinator(coord2)
	f.partitionAll(false)

	ms, err := coord2.RunCells(runCtx(t), digest, uint64(o.Sim.Warmup), configs)
	if err != nil {
		t.Fatalf("RunCells after restart: %v", err)
	}
	for i := range ms {
		if ms[i].Name == "" {
			t.Fatalf("cell %d unsettled after restart", i)
		}
	}
	completed2 := coord2.Counters().Snapshot().ConfigsCompleted
	if completed1+completed2 != uint64(len(configs)) {
		t.Fatalf("acceptances across incarnations = %d + %d, want exactly %d",
			completed1, completed2, len(configs))
	}
	if completed1 == 0 {
		t.Fatal("first incarnation accepted nothing; the restart scenario did not split the work")
	}

	f.stopAll()
	if err := coord2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	assertByteIdentity(t, coord2, dir, tr, o, refCSV, refBPC)
}

// TestChaosRestartStaleCompletion exercises the failure DESIGN.md §11
// used to document as a known limitation: a completion computed under
// one coordinator, held in flight across that coordinator's death,
// and delivered to its successor — whose young chunk sequence numbers
// collide with the dead incarnation's. Incarnation-tagged chunk IDs
// make the stale delivery harmless: it settles no young lease (it is
// counted in Stats.StaleCompletions instead), while its cells are
// still accepted exactly once, and the cell still settles to the
// byte-identical single-node result.
func TestChaosRestartStaleCompletion(t *testing.T) {
	tr := testTrace(t, 20000, 7)
	o := chaosSweepOpts()
	refCSV, refBPC := reference(t, tr, o)

	dir := t.TempDir()
	coord1 := NewCoordinator(Config{Dir: dir, ChunkCells: 2})
	f1 := startFleet(t, coord1, tracesFor(tr), []string{"holds"},
		func(id string, l *chaosLink, w *Worker) { l.holdComplete = true })

	configs := sweep.Configs(o)
	digest := tr.Digest()
	rctx, rcancel := context.WithCancel(context.Background())
	defer rcancel()
	phase1 := make(chan error, 1)
	go func() {
		_, err := coord1.RunCells(rctx, digest, uint64(o.Sim.Warmup), configs)
		phase1 <- err
	}()

	// Let the worker compute at least one chunk whose completion is
	// captured in flight, then tear the first incarnation down.
	waitUntil(t, 60*time.Second, "a completion to be captured in flight", func() bool {
		return f1.links["holds"].heldCount() >= 1
	})
	f1.partitionAll(true)
	rcancel()
	if err := <-phase1; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted RunCells: %v", err)
	}
	if got := coord1.Counters().Snapshot().ConfigsCompleted; got != 0 {
		t.Fatalf("first incarnation accepted %d cells; every completion should be held in flight", got)
	}
	if err := coord1.Stop(); err != nil {
		t.Fatalf("stopping first coordinator: %v", err)
	}
	f1.stopAll()

	// Restart over the same directory: the persisted incarnation
	// counter guarantees a distinct chunk-ID tag.
	coord2 := NewCoordinator(Config{Dir: dir, ChunkCells: 2})
	if coord2.Incarnation() == coord1.Incarnation() {
		t.Fatalf("restarted coordinator reused incarnation %d", coord1.Incarnation())
	}

	// Re-submit the whole sweep so the young coordinator mints chunks
	// whose low sequence bits collide with the held completion's, and
	// start dispatching them to a fresh worker.
	type runCellsResult struct {
		ms  []sim.Metrics
		err error
	}
	ctx2 := runCtx(t)
	phase2 := make(chan runCellsResult, 1)
	go func() {
		ms, err := coord2.RunCells(ctx2, digest, uint64(o.Sim.Warmup), configs)
		phase2 <- runCellsResult{ms, err}
	}()
	f2 := startFleet(t, coord2, tracesFor(tr), []string{"fresh"}, nil)
	waitUntil(t, 60*time.Second, "the young coordinator to dispatch", func() bool {
		return coord2.Stats().ChunksDispatched >= 1
	})

	// Deliver the stale completions mid-sweep, exactly as a zombie
	// worker reconnecting after the restart would.
	held := f1.links["holds"].takeHeld()
	if len(held) == 0 {
		t.Fatal("no held completions to replay")
	}
	for _, res := range held {
		if res.Chunk>>32 != coord1.Incarnation() {
			t.Fatalf("held chunk %#x not tagged with incarnation %d", res.Chunk, coord1.Incarnation())
		}
		if err := coord2.Complete(context.Background(), "holds", res); err != nil {
			t.Fatalf("delivering stale completion: %v", err)
		}
	}
	if got, want := coord2.Stats().StaleCompletions, uint64(len(held)); got != want {
		t.Fatalf("StaleCompletions = %d, want %d", got, want)
	}

	res := <-phase2
	if res.err != nil {
		t.Fatalf("RunCells after restart: %v", res.err)
	}
	for i := range res.ms {
		if res.ms[i].Name == "" {
			t.Fatalf("cell %d unsettled after the stale delivery", i)
		}
	}
	// Exactly-once acceptance across the stale replay and the fresh
	// execution: the first incarnation accepted nothing, so the second
	// must have accepted every distinct cell exactly once.
	if got := coord2.Counters().Snapshot().ConfigsCompleted; got != uint64(len(configs)) {
		t.Fatalf("ConfigsCompleted = %d, want exactly %d", got, uint64(len(configs)))
	}

	f2.stopAll()
	if err := coord2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	assertByteIdentity(t, coord2, dir, tr, o, refCSV, refBPC)
}

// TestChaosDuplicateCompletions delivers every chunk result twice —
// the retry-after-lost-ack failure. Every duplicated cell must be
// dropped by the ledger, never double-counted.
func TestChaosDuplicateCompletions(t *testing.T) {
	tr := testTrace(t, 20000, 5)
	o := chaosSweepOpts()
	refCSV, refBPC := reference(t, tr, o)

	dir := t.TempDir()
	coord := NewCoordinator(Config{Dir: dir, ChunkCells: 3})
	f := startFleet(t, coord, tracesFor(tr), []string{"w1", "w2"},
		func(id string, l *chaosLink, w *Worker) { l.dupComplete = true })

	configs := sweep.Configs(o)
	ms, err := coord.RunCells(runCtx(t), tr.Digest(), uint64(o.Sim.Warmup), configs)
	if err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	for i := range ms {
		if ms[i].Name == "" {
			t.Fatalf("cell %d unsettled", i)
		}
	}
	snap := coord.Counters().Snapshot()
	if snap.ConfigsCompleted != uint64(len(configs)) {
		t.Fatalf("ConfigsCompleted = %d, want exactly %d despite duplicate deliveries", snap.ConfigsCompleted, len(configs))
	}
	// The final chunk's duplicate delivery races RunCells's return;
	// wait for it rather than asserting instantly.
	waitUntil(t, 30*time.Second, "all duplicate deliveries", func() bool {
		return coord.Stats().DupCells == uint64(len(configs))
	})

	f.stopAll()
	if err := coord.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	assertByteIdentity(t, coord, dir, tr, o, refCSV, refBPC)
}

// TestChaosReplicationDelayDrop degrades the replication channel —
// one worker never receives replicas, one receives them late — and
// shows replication is pure optimization: correctness and exactly-
// once accounting hold regardless.
func TestChaosReplicationDelayDrop(t *testing.T) {
	tr := testTrace(t, 20000, 6)
	o := chaosSweepOpts()
	refCSV, refBPC := reference(t, tr, o)

	dir := t.TempDir()
	coord := NewCoordinator(Config{Dir: dir, ChunkCells: 3})
	f := startFleet(t, coord, tracesFor(tr), []string{"drops", "delays", "clean"},
		func(id string, l *chaosLink, w *Worker) {
			switch id {
			case "drops":
				l.dropReplicas = true
			case "delays":
				l.holdReplicas = true
			}
		})

	// Release the held replicas mid-sweep so the delayed batch lands
	// while work is still flowing. (No t calls in here: this is not
	// the test goroutine.)
	released := make(chan struct{})
	go func() {
		defer close(released)
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if coord.Counters().Snapshot().ConfigsCompleted >= 15 {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		l := f.links["delays"]
		l.mu.Lock()
		l.holdReplicas = false
		l.mu.Unlock()
	}()

	configs := sweep.Configs(o)
	ms, err := coord.RunCells(runCtx(t), tr.Digest(), uint64(o.Sim.Warmup), configs)
	if err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	<-released
	for i := range ms {
		if ms[i].Name == "" {
			t.Fatalf("cell %d unsettled", i)
		}
	}
	if got := coord.Counters().Snapshot().ConfigsCompleted; got != uint64(len(configs)) {
		t.Fatalf("ConfigsCompleted = %d, want exactly %d", got, len(configs))
	}
	// On one core a single worker can drain the whole sweep before its
	// idle peers wake to pull their backlogs; wait for the drain.
	waitUntil(t, 30*time.Second, "replicas to be sent", func() bool {
		return coord.Stats().ReplicasSent > 0
	})

	f.stopAll()
	if err := coord.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	assertByteIdentity(t, coord, dir, tr, o, refCSV, refBPC)
}
