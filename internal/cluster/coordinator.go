package cluster

import (
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bpred/internal/atomicfile"
	"bpred/internal/checkpoint"
	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/sim"
	"bpred/internal/trace"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Dir, when non-empty, roots the authoritative per-(trace,
	// warmup) BPC1 checkpoint files (bpserved uses <data>/checkpoints,
	// where bpsweep -resume reads them too). Empty keeps the ledger in
	// memory only (tests). No other live Store may open a file here,
	// per checkpoint's one-Store-per-path rule.
	Dir string
	// ChunkCells, when positive, is the cells per dispatch chunk.
	// Zero splits one RunCells call's fresh cells into one contiguous
	// chunk per joined worker, so a one-worker fleet runs each call in
	// one simulation pass over the trace. Smaller chunks bound the
	// work a crash loses; larger ones let one chunk-shared pass feed
	// more configurations.
	ChunkCells int
	// LeaseTimeout, when positive, re-queues a dispatched chunk whose
	// completion has not arrived within the timeout — liveness under
	// silent worker death on the HTTP transport. Zero disables the
	// reaper; in-process deployments signal death via WorkerLeave, and
	// an HTTP worker that exits cleanly leaves over /leave.
	LeaseTimeout time.Duration
	// PublishName, when non-empty, publishes the coordinator's
	// counters under this name (obs.Published, the /metrics page).
	PublishName string
}

// Stats counts coordinator-side scheduling events.
type Stats struct {
	// ChunksDispatched counts Next responses that carried a chunk.
	ChunksDispatched uint64
	// Requeues counts chunks re-queued after worker death or lease
	// expiry.
	Requeues uint64
	// DupCells counts completed cells dropped because the ledger had
	// already settled them (duplicated deliveries, re-executed
	// chunks).
	DupCells uint64
	// FlushErrors counts checkpoint flush failures. The cells stay
	// authoritative in memory, the RunCells calls waiting on them
	// fail, and the flush retries on the next RunCells or acceptance
	// over the same ledger and at Stop.
	FlushErrors uint64
	// StaleCompletions counts completions whose chunk ID carries
	// another coordinator incarnation's tag — deliveries that raced a
	// coordinator restart. Their cells are still folded into the
	// ledger (acceptance is self-describing and exactly-once), but
	// they settle no lease of this incarnation.
	StaleCompletions uint64
}

// Coordinator owns the single-flight ledger: the set of settled cells
// (backed by BPC1 checkpoint stores) plus the queue of chunks in
// flight. A cell is accepted — counted into ConfigsCompleted and made
// visible to sweeps — exactly once, however many workers report it;
// execution is at-least-once only across failures (a chunk whose
// completion was lost is re-run).
//
// The Coordinator itself implements CoordinatorClient, which is the
// in-process transport; Handler wraps it for HTTP workers.
type Coordinator struct {
	cfg         Config
	cnt         *obs.Counters
	incarnation uint64

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool                         //bplint:guardedby mu
	nextID   uint64                       //bplint:guardedby mu
	workers  map[string]bool              //bplint:guardedby mu // joined worker IDs
	queue    []*chunkState                //bplint:guardedby mu // undispatched chunks, oldest first
	pending  map[uint64]*chunkState       //bplint:guardedby mu // dispatched, awaiting completion
	cells    map[Key]*cellWait            //bplint:guardedby mu // unsettled cells
	stores   map[string]*checkpoint.Store //bplint:guardedby mu // "digest|warmup" -> authoritative ledger
	stats    Stats                        //bplint:guardedby mu
	stopReap chan struct{}
}

type chunkState struct {
	chunk    Chunk
	store    *checkpoint.Store
	assigned string // worker currently leasing it ("" = queued)
	deadline time.Time
}

type cellWait struct {
	done chan struct{}
	m    sim.Metrics
	err  error
}

// NewCoordinator builds a coordinator. Call Stop to flush the ledger
// and release waiters.
func NewCoordinator(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:         cfg,
		cnt:         &obs.Counters{},
		incarnation: nextIncarnation(cfg.Dir),
		workers:     make(map[string]bool),
		pending:     make(map[uint64]*chunkState),
		cells:       make(map[Key]*cellWait),
		stores:      make(map[string]*checkpoint.Store),
	}
	c.cond = sync.NewCond(&c.mu)
	if cfg.PublishName != "" {
		c.cnt.Publish(cfg.PublishName)
	}
	if cfg.LeaseTimeout > 0 {
		c.stopReap = make(chan struct{})
		go c.reap()
	}
	return c
}

// nextIncarnation derives a fresh coordinator incarnation: a counter
// persisted under dir, incremented on every coordinator start, so
// successive coordinators over one deployment never share chunk-ID
// tags — a completion held in flight across a coordinator restart
// can never collide with a chunk ID the successor issued. Without a
// directory (in-memory deployments) there is nothing to survive a
// restart into, so the incarnation is a constant 1. It sweeps dir too.
func nextIncarnation(dir string) uint64 {
	if dir == "" {
		return 1
	}
	path := filepath.Join(dir, "incarnation")
	// A missing or unreadable counter reads 0, so the next is 1. The
	// 32-bit tag space wraps (ParseUint reads a counter past it as
	// 0xffffffff): a collision needs 4G restarts plus a
	// 2^32-chunk-old straggler.
	raw, _ := os.ReadFile(path)
	n, _ := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 32)
	n = n%0xffffffff + 1
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = atomicfile.Sweep(dir)
	}
	if err == nil {
		err = atomicfile.WriteFile(path, []byte(strconv.FormatUint(n, 10)+"\n"))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cluster: opening %s: %v\n", dir, err)
	}
	return n
}

// Incarnation returns the coordinator's chunk-ID tag.
func (c *Coordinator) Incarnation() uint64 { return c.incarnation }

// chunkIDLocked mints the next chunk ID: the coordinator's
// incarnation in the high 32 bits over a per-process sequence.
func (c *Coordinator) chunkIDLocked() uint64 {
	c.nextID++
	return c.incarnation<<32 | (c.nextID & 0xffffffff)
}

// Counters exposes the coordinator's fleet-global counters.
// ConfigsCompleted counts exactly-once cell acceptances, which is the
// chaos harness's proof obligation.
func (c *Coordinator) Counters() *obs.Counters { return c.cnt }

// Stats returns a snapshot of the scheduling statistics.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// CellsInFlight returns the number of cells enqueued and not yet
// settled.
func (c *Coordinator) CellsInFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cells)
}

// StoreFor returns the authoritative ledger for one (trace, warmup)
// binding, creating it on first use. The returned Store is shared —
// per checkpoint's rules, do not Open a second Store on its path.
func (c *Coordinator) StoreFor(digest [32]byte, warmup uint64) (*checkpoint.Store, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.storeForLocked(digest, warmup)
}

func (c *Coordinator) storeForLocked(digest [32]byte, warmup uint64) (*checkpoint.Store, error) {
	key := fmt.Sprintf("%x|%d", digest[:], warmup)
	if s, ok := c.stores[key]; ok {
		return s, nil
	}
	var s *checkpoint.Store
	if c.cfg.Dir == "" {
		s = checkpoint.NewMemory(digest, warmup)
	} else {
		var err error
		s, err = checkpoint.Open(checkpoint.PathFor(c.cfg.Dir, digest, warmup), digest, warmup)
		if err != nil {
			return nil, err
		}
	}
	c.stores[key] = s
	return s, nil
}

// RunCells evaluates configs against (digest, warmup) across the
// fleet and returns metrics aligned with configs. Settled cells are
// served from the ledger (counted ConfigsCached); missing cells are
// chunked onto the queue and waited on. Concurrent RunCells calls
// wanting the same cell subscribe to one execution — the
// single-flight.
//
// cnt, when non-nil, is credited as the caller's own counters: a
// cell this call enqueued counts ConfigsCompleted once it settles, a
// cell served from the ledger or from another call's execution counts
// ConfigsCached, and the branches and chunk batches of the chunks
// this call enqueued are counted live by in-process workers (or
// merged from a remote worker's completion before its cells settle).
//
// Every cell RunCells returns is on disk when the ledger has a Dir: a
// failed ledger flush fails the calls waiting on the cells it held.
//
// On ctx cancellation the call returns at once with ctx.Err() and
// every cell that had settled: those entries carry non-empty Names,
// mirroring sim.RunConfigsCtx's partial-result contract. Cells
// already enqueued keep executing and settle into the ledger for the
// next caller.
func (c *Coordinator) RunCells(ctx context.Context, digest [32]byte, warmup uint64, configs []core.Config, cnt *obs.Counters) ([]sim.Metrics, error) {
	out := make([]sim.Metrics, len(configs))
	var got obs.Snapshot
	defer func() { cnt.Merge(got) }()
	type sub struct {
		i   int
		w   *cellWait
		own bool // this call enqueued the cell
	}
	var subs []sub

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return out, ErrShutdown
	}
	store, err := c.storeForLocked(digest, warmup)
	if err == nil {
		err = c.flushLocked(store) // retries a failed flush: ledger hits must be on disk
	}
	if err != nil {
		c.mu.Unlock()
		return out, err
	}
	var fresh []core.Config
	for i, cfg := range configs {
		fp := cfg.Fingerprint()
		if m, ok := store.Lookup(fp); ok {
			out[i] = m
			c.cnt.AddCached(1)
			got.ConfigsCached++
			continue
		}
		key := Key{Digest: digest, Warmup: warmup, Fingerprint: fp}
		if w, ok := c.cells[key]; ok {
			subs = append(subs, sub{i: i, w: w})
			continue
		}
		w := &cellWait{done: make(chan struct{})}
		c.cells[key] = w
		subs = append(subs, sub{i: i, w: w, own: true})
		fresh = append(fresh, cfg)
	}
	if len(fresh) > 0 {
		c.enqueueLocked(store, digest, warmup, fresh, cnt)
		c.cond.Broadcast()
	}
	c.mu.Unlock()

	settle := func(s sub) error {
		if s.w.err != nil {
			return s.w.err
		}
		out[s.i] = s.w.m
		if s.own {
			got.ConfigsCompleted++
		} else {
			got.ConfigsCached++
		}
		return nil
	}
	for k, s := range subs {
		select {
		case <-ctx.Done():
			// Keep every cell that settled before the cancel.
			for _, r := range subs[k:] {
				select {
				case <-r.w.done:
					_ = settle(r) // a failed cell just stays unsettled in the partial result
				default:
				}
			}
			return out, ctx.Err()
		case <-s.w.done:
			if err := settle(s); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// enqueueLocked cuts fresh cells into contiguous chunks — one per
// joined worker, or Config.ChunkCells cells each — and appends them
// to the queue.
func (c *Coordinator) enqueueLocked(store *checkpoint.Store, digest [32]byte, warmup uint64, configs []core.Config, cnt *obs.Counters) {
	size := c.cfg.ChunkCells
	if size <= 0 {
		w := max(len(c.workers), 1)
		size = (len(configs) + w - 1) / w
	}
	hexDigest := hex.EncodeToString(digest[:])
	for lo := 0; lo < len(configs); lo += size {
		c.queue = append(c.queue, &chunkState{
			chunk: Chunk{
				ID:      c.chunkIDLocked(),
				Trace:   hexDigest,
				Warmup:  warmup,
				Configs: configs[lo:min(lo+size, len(configs))],
				Obs:     cnt,
			},
			store: store,
		})
	}
}

// Join implements CoordinatorClient: it registers the worker.
func (c *Coordinator) Join(ctx context.Context, workerID string) error {
	_ = ctx
	if workerID == "" {
		return fmt.Errorf("cluster: empty worker id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrShutdown
	}
	c.workers[workerID] = true
	return nil
}

// WorkerLeave deregisters a worker and re-queues its in-flight
// leases; later calls are cut into one chunk per worker still joined.
// Leaving twice is a no-op. A completion the departed worker still
// manages to deliver later is accepted and deduplicated like any
// other.
func (c *Coordinator) WorkerLeave(workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.workers[workerID] {
		return
	}
	delete(c.workers, workerID)
	for id, cs := range c.pending {
		if cs.assigned == workerID {
			c.requeueLocked(id, cs)
		}
	}
	c.cond.Broadcast()
}

// requeueLocked takes a lease back and puts its chunk at the tail of
// the queue, under the same chunk ID.
func (c *Coordinator) requeueLocked(id uint64, cs *chunkState) {
	delete(c.pending, id)
	cs.assigned = ""
	c.stats.Requeues++
	c.queue = append(c.queue, cs)
}

// Next implements CoordinatorClient: it blocks until the queue holds
// a chunk with unsettled cells or ctx ends, and leases the oldest
// such chunk to workerID.
func (c *Coordinator) Next(ctx context.Context, workerID string) (*Chunk, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	for {
		if c.closed {
			return nil, ErrShutdown
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !c.workers[workerID] {
			return nil, ErrUnknownWorker
		}
		for len(c.queue) > 0 {
			cs := c.queue[0]
			c.queue = c.queue[1:]
			if !c.trimLocked(cs) {
				continue
			}
			cs.assigned = workerID
			if c.cfg.LeaseTimeout > 0 {
				cs.deadline = obs.Now().Add(c.cfg.LeaseTimeout)
			}
			c.pending[cs.chunk.ID] = cs
			c.stats.ChunksDispatched++
			chunk := cs.chunk
			return &chunk, nil
		}
		c.cond.Wait()
	}
}

// trimLocked narrows a queued chunk to its still-unsettled cells and
// reports whether any remain. A chunk re-queued after a presumed
// worker death whose original lease then completed, or one whose
// cells another delivery settled meanwhile, is trimmed here instead
// of re-executed. The survivors go into a fresh slice, because an
// in-process worker may still hold the earlier lease's Configs.
func (c *Coordinator) trimLocked(cs *chunkState) bool {
	left := make([]core.Config, 0, len(cs.chunk.Configs))
	for _, cfg := range cs.chunk.Configs {
		if _, ok := cs.store.Lookup(cfg.Fingerprint()); !ok {
			left = append(left, cfg)
		}
	}
	cs.chunk.Configs = left
	return len(left) > 0
}

// Complete implements CoordinatorClient: it folds a chunk's results
// into the ledger. Acceptance is exactly-once per cell — a cell
// already settled is dropped (stats.DupCells) without touching
// ConfigsCompleted — and unconditional on the sender: completions
// from deregistered workers and from before a coordinator restart
// carry everything needed to be accepted on their own.
func (c *Coordinator) Complete(ctx context.Context, workerID string, res ChunkResult) error {
	_ = ctx
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrShutdown
	}
	digest, err := trace.ParseDigest(res.Trace)
	if err != nil {
		return fmt.Errorf("cluster: bad trace digest %q", res.Trace)
	}
	store, err := c.storeForLocked(digest, res.Warmup)
	if err != nil {
		return err
	}
	// A completion minted by another incarnation (held in flight
	// across a coordinator restart) can settle no lease here — its ID
	// cannot collide with any this coordinator issued. Its cells are
	// still accepted below exactly like fresh ones: cell identity is
	// content-addressed and independent of scheduling generation.
	if res.Chunk>>32 != c.incarnation {
		c.stats.StaleCompletions++
	}
	// Only the completion that settles a pending lease merges the
	// worker-side simulation load (branches, batches): a duplicated
	// delivery, or one that raced a requeue or a restart, adds
	// nothing. Completion and cache accounting stay the coordinator's,
	// which is what makes ConfigsCompleted the exactly-once witness.
	// The caller's merge (skipped when an in-process worker already
	// counted into it live) precedes the cell wake-ups below, so a
	// RunCells caller holds its chunk's progress by the time it
	// returns.
	if cs, ok := c.pending[res.Chunk]; ok {
		delete(c.pending, res.Chunk)
		p := obs.Snapshot{Branches: res.Progress.Branches, Chunks: res.Progress.Chunks}
		c.cnt.Merge(p)
		if !res.Live {
			cs.chunk.Obs.Merge(p)
		}
	}
	accepted := 0
	var woken []*cellWait
	for _, cell := range res.Cells {
		if _, ok := store.Lookup(cell.Fingerprint); ok {
			c.stats.DupCells++
			continue
		}
		store.Add(cell.Fingerprint, cell.Metrics)
		c.cnt.AddCompleted(1)
		accepted++
		key := Key{Digest: digest, Warmup: res.Warmup, Fingerprint: cell.Fingerprint}
		if cw, ok := c.cells[key]; ok {
			cw.m = cell.Metrics
			woken = append(woken, cw)
			delete(c.cells, key)
		}
	}
	if accepted > 0 {
		// Flush per acceptance batch, before any waiter wakes: a
		// caller that sees its cells settled finds them in the BPC1
		// file, or fails with the flush error, and a coordinator crash
		// loses at most the chunks completed since the last Complete
		// call.
		if err := c.flushLocked(store); err != nil {
			for _, cw := range woken {
				cw.err = err
			}
		}
	}
	for _, cw := range woken {
		close(cw.done)
	}
	if res.Err != "" {
		failErr := fmt.Errorf("cluster: chunk %d failed: %s", res.Chunk, res.Err)
		for _, fp := range res.Failed {
			key := Key{Digest: digest, Warmup: res.Warmup, Fingerprint: fp}
			if cw, ok := c.cells[key]; ok {
				cw.err = failErr
				close(cw.done)
				delete(c.cells, key)
			}
		}
	}
	return nil
}

// flushLocked writes a ledger's unflushed cells to its BPC1 file (a
// no-op when none are pending), counting a failure.
func (c *Coordinator) flushLocked(store *checkpoint.Store) error {
	if err := store.Flush(); err != nil {
		c.stats.FlushErrors++
		return fmt.Errorf("cluster: ledger: %w", err)
	}
	return nil
}

// reap re-queues chunks whose lease expired without a completion. It
// checks every half lease, but no more often than every millisecond:
// a lease under 2 ns would otherwise ask for a zero tick.
func (c *Coordinator) reap() {
	t := time.NewTicker(max(c.cfg.LeaseTimeout/2, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-c.stopReap:
			return
		case <-t.C:
			c.mu.Lock()
			now := obs.Now()
			for id, cs := range c.pending {
				if now.After(cs.deadline) {
					c.requeueLocked(id, cs)
				}
			}
			c.cond.Broadcast()
			c.mu.Unlock()
		}
	}
}

// Stop shuts the coordinator down: blocked Next calls and outstanding
// cell waiters resolve with ErrShutdown and every ledger store is
// flushed. It returns the first flush error.
func (c *Coordinator) Stop() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.stopReap != nil {
		close(c.stopReap)
	}
	for key, w := range c.cells {
		w.err = ErrShutdown
		close(w.done)
		delete(c.cells, key)
	}
	var first error
	keys := make([]string, 0, len(c.stores))
	for k := range c.stores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := c.stores[k].Flush(); err != nil && first == nil {
			first = err
		}
	}
	c.cond.Broadcast()
	return first
}
