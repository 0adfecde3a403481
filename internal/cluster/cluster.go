// Package cluster is the sweep service's scheduler: a coordinator
// plus N pull-based workers. Every bpserved runs one — a lone server
// is a one-node cluster whose only worker is embedded in-process.
// Sweep cells — the (trace digest, warmup, config fingerprint)
// triples that key the BPC1 checkpoint cache — are consistent-hashed
// across the worker fleet, the coordinator is the one exactly-once
// layer (a cell is accepted into the authoritative ledger exactly
// once, fleet-wide, no matter how many workers report it, and
// concurrent callers wanting one cell subscribe to one execution),
// and workers pull from per-node queues with work-stealing so one hot
// sweep saturates every core on every node.
//
// BPC1 checkpoints are the replication unit: the coordinator's
// per-(trace, warmup) Store is the ledger of settled cells, settled
// cells are pushed to the workers that did not compute them,
// piggybacked on Next responses (best-effort cache warming, so any
// node can serve any cached cell), and a worker crash loses at most
// the one chunk it was executing — the coordinator re-queues it on
// WorkerLeave or lease expiry.
//
// The correctness bar is byte-identity: because the simulator is
// deterministic in exactly (trace bytes, config, warmup) and BPC1
// serialization is byte-stable, a multi-node sweep must produce a
// Surface byte-identical to the single-node run. chaos_test.go holds
// the topology to that bar under injected failures. DESIGN.md §11
// documents the architecture.
package cluster

import (
	"context"
	"errors"

	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/sim"
	"bpred/internal/trace"
)

// ErrShutdown is returned by coordinator calls after Stop.
var ErrShutdown = errors.New("cluster: coordinator shut down")

// ErrUnknownWorker tells a worker the coordinator has no registration
// for it (typically because the coordinator restarted); the worker
// re-Joins and retries.
var ErrUnknownWorker = errors.New("cluster: unknown worker")

// Chunk is the dispatch unit: one ring owner's share of one RunCells
// call, split into slabs of Config.ChunkCells cells when that is set.
// A worker executes a chunk atomically, in one simulation pass over
// the trace — a crash mid-chunk loses at most this one chunk, which
// the coordinator re-queues.
type Chunk struct {
	ID      uint64        `json:"id"`
	Trace   string        `json:"trace"` // hex SHA-256 content digest
	Warmup  uint64        `json:"warmup"`
	Configs []core.Config `json:"configs"`
	// Obs is the enqueuing RunCells caller's counters. It reaches only
	// in-process workers (it does not cross the wire), which count
	// the chunk's simulation progress into it as they run, so a job's
	// progress moves during a tier and not only when it ends.
	Obs *obs.Counters `json:"-"`
}

// CellResult carries one completed cell's metrics.
type CellResult struct {
	Fingerprint string      `json:"fingerprint"`
	Metrics     sim.Metrics `json:"metrics"`
}

// ChunkResult reports one chunk's outcome. Results are
// self-describing (trace + warmup + fingerprints, not just the chunk
// ID), so a restarted coordinator accepts work it never handed out —
// the property that bounds loss across a coordinator crash to chunks,
// never to settled cells.
type ChunkResult struct {
	Chunk  uint64       `json:"chunk"`
	Trace  string       `json:"trace"`
	Warmup uint64       `json:"warmup"`
	Cells  []CellResult `json:"cells"`
	// Err, when non-empty, reports a chunk that failed for a
	// non-cancellation reason; Failed lists the fingerprints of the
	// cells it could not evaluate.
	Err    string   `json:"err,omitempty"`
	Failed []string `json:"failed,omitempty"`
	// Progress is the worker-side simulation counter delta for this
	// chunk (branches and chunk batches; the coordinator owns
	// cell-completion accounting). The coordinator merges it only from
	// the completion that settles the chunk's lease.
	Progress obs.Snapshot `json:"progress"`
	// Live marks a result whose Progress the worker already counted
	// into the chunk's Obs as it ran (in-process only, like Obs), so
	// the coordinator does not credit the caller with it again.
	Live bool `json:"-"`
}

// ReplicaCell is a settled cell pushed to workers piggybacked on Next
// responses: best-effort replication of the BPC1 ledger, so a chunk
// re-dispatched after a failure can be answered from a warm cache
// instead of re-simulated.
type ReplicaCell struct {
	Trace       string      `json:"trace"`
	Warmup      uint64      `json:"warmup"`
	Fingerprint string      `json:"fingerprint"`
	Metrics     sim.Metrics `json:"metrics"`
}

// Work is one Next response: an optional chunk to execute plus the
// replication backlog accumulated since the worker's last pull. A
// Work with a nil Chunk carries replication traffic only (or, on the
// HTTP transport, a long-poll timeout).
type Work struct {
	Chunk    *Chunk        `json:"chunk,omitempty"`
	Replicas []ReplicaCell `json:"replicas,omitempty"`
}

// CoordinatorClient is the worker's view of the coordinator. The
// Coordinator implements it directly (in-process transport),
// HTTPClient implements it over the wire, and the chaos harness wraps
// either to inject partitions, duplicated deliveries, and crashes.
type CoordinatorClient interface {
	// Join registers the worker (idempotent) and adds it to the
	// consistent-hash ring.
	Join(ctx context.Context, workerID string) error
	// Next blocks until the coordinator has work for workerID or ctx
	// ends.
	Next(ctx context.Context, workerID string) (Work, error)
	// Complete delivers a chunk's results. It is idempotent: cells
	// already settled are silently deduplicated, and results are
	// accepted even from workers the coordinator no longer knows
	// (it restarted, or it presumed the sender dead).
	Complete(ctx context.Context, workerID string, res ChunkResult) error
}

// TraceProvider resolves a trace digest to the decoded trace. The
// service's TraceStore satisfies it in-process; RemoteTraces fetches
// from the coordinator over HTTP. ctx bounds the resolution — a
// remote replication download of a large trace must die with the
// worker's run context.
type TraceProvider interface {
	Trace(ctx context.Context, digest string) (*trace.Trace, error)
}

// StreamProvider is a TraceProvider that keeps large traces on disk.
// OpenStream opens a fresh BPT2 block reader over a trace past the
// provider's stream cutoff and returns nil for a trace at or under
// it, which the worker decodes through Trace instead. The service's
// TraceStore implements it, so the embedded worker never makes a
// large trace resident (DESIGN.md §13).
type StreamProvider interface {
	TraceProvider
	OpenStream(digest string) (*trace.FileReader, error)
}
