package cluster

// The failure-injection harness. Workers talk to the coordinator
// through chaosLink, a CoordinatorClient wrapper that can partition
// the connection, duplicate or hold completions, kill the worker at a
// chosen completion, and be re-pointed at a different coordinator (a
// "restart"). Scenarios in
// chaos_test.go compose these faults and then hold the cluster to the
// byte-identity bar against a single-node run.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"bpred/internal/checkpoint"
	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/sim"
	"bpred/internal/sweep"
	"bpred/internal/trace"
	"bpred/internal/workload"
)

// testDigest fabricates a trace digest for scheduler-only tests that
// never resolve the trace.
func testDigest(seed byte) [32]byte {
	return sha256.Sum256([]byte{seed})
}

// testTrace builds a small deterministic workload trace.
func testTrace(t *testing.T, n int, seed uint64) *trace.Trace {
	t.Helper()
	p, ok := workload.ProfileByName("espresso")
	if !ok {
		p = workload.Profiles()[0]
	}
	return workload.Generate(p, seed, n)
}

// memTraces is an in-memory TraceProvider.
type memTraces map[string]*trace.Trace

func (m memTraces) Trace(ctx context.Context, digest string) (*trace.Trace, error) {
	tr, ok := m[digest]
	if !ok {
		return nil, errors.New("memTraces: no such trace")
	}
	return tr, nil
}

func tracesFor(trs ...*trace.Trace) memTraces {
	m := make(memTraces, len(trs))
	for _, tr := range trs {
		d := tr.Digest()
		m[fmt.Sprintf("%x", d[:])] = tr
	}
	return m
}

// chaosSweepOpts is the scenario workload: a gshare slice of the
// Figure-4 grid (45 cells over six tiers), metered so the alias
// taxonomy rides through the wire types too, with a non-zero warmup
// so the warmup leg of the cell key is exercised.
func chaosSweepOpts() sweep.Options {
	return sweep.Options{
		Scheme:  core.SchemeGShare,
		Tiers:   []int{4, 5, 6, 7, 8, 9},
		Metered: true,
		Sim:     sim.Options{Warmup: 64},
	}
}

// reference runs the sweep single-node with a file-backed checkpoint
// and returns the Surface CSV bytes and the BPC1 file bytes — the
// byte-identity baseline every scenario must reproduce.
func reference(t *testing.T, tr *trace.Trace, o sweep.Options) (csv, bpc []byte) {
	t.Helper()
	dir := t.TempDir()
	o.CheckpointDir = dir
	surf, err := sweep.RunCtx(context.Background(), o, tr)
	if err != nil {
		t.Fatalf("single-node reference sweep: %v", err)
	}
	var buf bytes.Buffer
	if err := surf.WriteCSV(&buf); err != nil {
		t.Fatalf("reference WriteCSV: %v", err)
	}
	bpc, err = os.ReadFile(checkpoint.PathFor(dir, tr.Digest(), uint64(o.Sim.Warmup)))
	if err != nil {
		t.Fatalf("reading reference checkpoint: %v", err)
	}
	return buf.Bytes(), bpc
}

// assertByteIdentity proves the cluster run reproduced the
// single-node artifacts bit for bit: the coordinator's BPC1 ledger
// file equals the reference file, and a Surface assembled purely from
// the ledger (zero new simulations, proven via obs) writes the same
// CSV. clusterDir is the coordinator's Config.Dir.
func assertByteIdentity(t *testing.T, c *Coordinator, clusterDir string, tr *trace.Trace, o sweep.Options, refCSV, refBPC []byte) {
	t.Helper()
	digest := tr.Digest()
	gotBPC, err := os.ReadFile(checkpoint.PathFor(clusterDir, digest, uint64(o.Sim.Warmup)))
	if err != nil {
		t.Fatalf("reading cluster checkpoint: %v", err)
	}
	if !bytes.Equal(gotBPC, refBPC) {
		t.Fatalf("cluster BPC1 file differs from single-node (%d vs %d bytes)", len(gotBPC), len(refBPC))
	}
	store, err := c.StoreFor(digest, uint64(o.Sim.Warmup))
	if err != nil {
		t.Fatalf("StoreFor: %v", err)
	}
	var cnt obs.Counters
	ao := o
	ao.Checkpoint = store
	ao.Sim.Obs = &cnt
	surf, err := sweep.RunCtx(context.Background(), ao, tr)
	if err != nil {
		t.Fatalf("assembling Surface from ledger: %v", err)
	}
	snap := cnt.Snapshot()
	if snap.ConfigsCompleted != 0 {
		t.Fatalf("Surface assembly simulated %d cells; the ledger should have had every cell", snap.ConfigsCompleted)
	}
	if snap.ConfigsCached == 0 {
		t.Fatal("Surface assembly cached no cells; the ledger is empty")
	}
	var buf bytes.Buffer
	if err := surf.WriteCSV(&buf); err != nil {
		t.Fatalf("cluster WriteCSV: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), refCSV) {
		t.Fatalf("cluster Surface CSV differs from single-node:\n--- cluster ---\n%s\n--- single-node ---\n%s", buf.Bytes(), refCSV)
	}
}

// errPartitioned simulates a severed connection.
var errPartitioned = errors.New("chaos: partitioned")

// chaosLink wraps the in-process transport with injectable faults.
type chaosLink struct {
	mu           sync.Mutex
	coord        *Coordinator // swappable: a coordinator "restart"
	partitioned  bool
	dupComplete  bool
	holdComplete bool          // capture completions in flight instead of delivering
	held         []ChunkResult // captured completions, releasable to any coordinator
	killOn       int           // 1-based Complete call that kills the worker (0 = never)
	completes    int
	kill         func() // cancels the worker's ctx; must not block
}

func (l *chaosLink) heldCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.held)
}

// takeHeld surrenders the captured in-flight completions to the
// caller (which typically replays them against a restarted
// coordinator, simulating deliveries that raced the restart).
func (l *chaosLink) takeHeld() []ChunkResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.held
	l.held = nil
	return out
}

func (l *chaosLink) target() (*Coordinator, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.coord, l.partitioned
}

func (l *chaosLink) setCoord(c *Coordinator) {
	l.mu.Lock()
	l.coord = c
	l.mu.Unlock()
}

func (l *chaosLink) setPartitioned(p bool) {
	l.mu.Lock()
	l.partitioned = p
	l.mu.Unlock()
}

func (l *chaosLink) Join(ctx context.Context, id string) error {
	c, cut := l.target()
	if cut {
		return errPartitioned
	}
	return c.Join(ctx, id)
}

func (l *chaosLink) Next(ctx context.Context, id string) (*Chunk, error) {
	c, cut := l.target()
	if cut {
		return nil, errPartitioned
	}
	return c.Next(ctx, id)
}

func (l *chaosLink) Complete(ctx context.Context, id string, res ChunkResult) error {
	l.mu.Lock()
	c, cut := l.coord, l.partitioned
	if cut {
		l.mu.Unlock()
		return errPartitioned
	}
	l.completes++
	if l.holdComplete {
		// The completion is computed but never leaves the node — it is
		// "in flight" until the scenario releases it, possibly to a
		// different coordinator incarnation.
		l.held = append(l.held, res)
		l.mu.Unlock()
		return nil
	}
	kill := l.killOn > 0 && l.completes == l.killOn
	dup := l.dupComplete
	killFn := l.kill
	l.mu.Unlock()
	if kill {
		// The worker dies before the completion leaves the node: the
		// chunk's results are lost with it.
		if killFn != nil {
			killFn()
		}
		return errPartitioned
	}
	if err := c.Complete(ctx, id, res); err != nil {
		return err
	}
	if dup {
		// Exactly the duplicated-delivery failure: the same result
		// arrives twice (retry after a lost ack).
		return c.Complete(ctx, id, res)
	}
	return nil
}

// fleet runs N Workers against one coordinator through chaosLinks.
type fleet struct {
	t       *testing.T
	links   map[string]*chaosLink
	workers map[string]*Worker
	cancels map[string]context.CancelFunc
	done    map[string]chan struct{} // closed when the worker's Run returns
	stopped bool
}

// startFleet launches workers ids against coord. mutate, when
// non-nil, customizes each worker's link and hooks before it starts.
func startFleet(t *testing.T, coord *Coordinator, traces TraceProvider, ids []string, mutate func(id string, l *chaosLink, w *Worker)) *fleet {
	t.Helper()
	f := &fleet{
		t:       t,
		links:   make(map[string]*chaosLink),
		workers: make(map[string]*Worker),
		cancels: make(map[string]context.CancelFunc),
		done:    make(map[string]chan struct{}),
	}
	for _, id := range ids {
		id := id
		l := &chaosLink{coord: coord}
		w := NewWorker(id, l, traces)
		w.RetryDelay = 2 * time.Millisecond
		ctx, cancel := context.WithCancel(context.Background())
		l.kill = cancel
		if mutate != nil {
			mutate(id, l, w)
		}
		// Pre-register so fleet membership doesn't depend on goroutine
		// scheduling: a call's cells are cut into one chunk per joined
		// worker when ChunkCells is zero, and on one core a single
		// worker can otherwise finish an entire sweep before its
		// peers' goroutines first run. The worker's own Join is
		// idempotent on top of this.
		if err := coord.Join(context.Background(), id); err != nil {
			t.Fatalf("pre-registering %s: %v", id, err)
		}
		f.links[id] = l
		f.workers[id] = w
		f.cancels[id] = cancel
		done := make(chan struct{})
		f.done[id] = done
		go func() {
			defer close(done)
			_ = w.Run(ctx)
			// A dead worker's leases go back to the queue; on the
			// current coordinator, like a liveness prober would.
			if c, cut := l.target(); !cut {
				c.WorkerLeave(id)
			}
		}()
	}
	t.Cleanup(f.stopAll)
	return f
}

// kill cancels one worker and waits for it to exit; its leases are
// re-queued by the exit path in startFleet.
func (f *fleet) kill(id string) {
	f.cancels[id]()
	select {
	case <-f.done[id]:
	case <-time.After(30 * time.Second):
		f.t.Fatalf("worker %s did not exit after kill", id)
	}
}

// waitDead waits for a worker to die of its injected fault (without
// canceling it), including the WorkerLeave in its exit path.
func (f *fleet) waitDead(id string) {
	f.t.Helper()
	select {
	case <-f.done[id]:
	case <-time.After(60 * time.Second):
		f.t.Fatalf("worker %s did not die of its injected fault", id)
	}
}

func (f *fleet) stopAll() {
	if f.stopped {
		return
	}
	f.stopped = true
	for id := range f.cancels {
		f.cancels[id]()
	}
	for id, done := range f.done {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			f.t.Errorf("worker %s did not exit at cleanup", id)
		}
	}
}

func (f *fleet) partitionAll(p bool) {
	for _, l := range f.links {
		l.setPartitioned(p)
	}
}

func (f *fleet) swapCoordinator(c *Coordinator) {
	for _, l := range f.links {
		l.setCoord(c)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
