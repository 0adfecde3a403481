// bpserved serves branch-predictor sweeps over HTTP: upload BPT1
// traces, submit sweep jobs, poll status, stream progress, and fetch
// results, with all simulation deduplicated through one BPC1 ledger.
//
// Usage:
//
//	bpserved -data ./bpserved-data                 # single-node on :8149
//	bpserved -listen 127.0.0.1:0 -workers 4        # ephemeral port
//
// Every server is a one-node cluster: a coordinator that owns the
// ledger and schedules cells, plus one embedded in-process worker.
// -role coordinator also mounts the cluster transport under
// /cluster/v1/, so more workers can join:
//
//	bpserved -role coordinator -data ./coord-data
//	bpserved -role worker -node w1 -join http://localhost:8149
//	bpserved -role worker -node w2 -join http://localhost:8149
//
// The coordinator cuts each job tier's cells into one chunk per joined
// worker on one queue, which the embedded worker and the joined ones
// pull from; workers are stateless pullers that dial in over HTTP — no
// inbound connectivity to them is needed.
//
// The chosen listen address is printed to stderr as
// "bpserved: listening on ADDR" once the socket is bound, so wrappers
// can parse it when using port 0. SIGINT/SIGTERM drains gracefully:
// running jobs are interrupted, the embedded worker stops at its next
// trace chunk, the ledger is flushed, the job table is compacted, and
// the process exits 0; a restart over the same -data directory
// resumes interrupted jobs and keeps serving completed results. Job
// transitions are journaled as they happen, so a killed server
// restarts just as well. A -role worker leaves the coordinator as it
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bpred/internal/cluster"
	"bpred/internal/service"
)

func main() {
	var (
		listen   = flag.String("listen", ":8149", "listen address (host:port; port 0 picks a free port)")
		dataDir  = flag.String("data", "", "data directory for traces, checkpoints, results, and the job table (required unless -role worker)")
		workers  = flag.Int("workers", 0, "sweep worker pool size (0 = 2)")
		queue    = flag.Int("queue", 0, "job queue depth before submissions see 429 (0 = 64)")
		maxBr    = flag.Uint64("max-trace-branches", 0, "per-trace record cap (0 = 16M)")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "how long a shutdown waits for running jobs and the embedded worker to stop")
		role     = flag.String("role", "single", "process role: single, coordinator, or worker")
		node     = flag.String("node", "", "-role worker: this worker's fleet identity (default: worker-<pid>)")
		join     = flag.String("join", "", "coordinator base URL a worker dials, e.g. http://host:8149 (required for -role worker)")
		lease    = flag.Duration("cluster-lease", 2*time.Minute, "coordinator: re-queue a dispatched chunk if not completed within this lease (0 disables)")
		authFile = flag.String("auth-file", "", "tenants JSON file ([{name, key, max_traces, max_queued_jobs}]); enables multi-tenant auth")
		cToken   = flag.String("cluster-token", "", "shared bearer token protecting the /cluster/v1 transport (coordinator and workers)")
		cacheCap = flag.Int("trace-cache", 0, "decoded-trace LRU capacity in traces (0 = 8); running jobs pin their traces")
		streamBr = flag.Uint64("stream-branches", 0, "traces beyond this record count stream from disk instead of decoding (0 = 4M)")
	)
	flag.Parse()

	switch *role {
	case "worker":
		os.Exit(runWorker(*node, *join, *cToken))
	case "single", "coordinator":
	default:
		fmt.Fprintf(os.Stderr, "bpserved: unknown -role %q (want single, coordinator, or worker)\n", *role)
		os.Exit(2)
	}

	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "bpserved: -data required")
		os.Exit(2)
	}

	cfg := service.Config{
		DataDir:          *dataDir,
		Workers:          *workers,
		QueueDepth:       *queue,
		MaxTraceBranches: *maxBr,
		TraceCacheCap:    *cacheCap,
		StreamBranches:   *streamBr,
	}
	if *authFile != "" {
		tenants, err := service.LoadTenants(*authFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpserved: %v\n", err)
			os.Exit(1)
		}
		cfg.Tenants = tenants
		fmt.Fprintf(os.Stderr, "bpserved: multi-tenant mode, %d tenants\n", len(tenants))
	}

	// Only remote workers can go silent, so only the coordinator role
	// leases chunks.
	if *role == "coordinator" {
		cfg.ClusterLease = *lease
	}

	m, err := service.NewManager(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpserved: %v\n", err)
		os.Exit(1)
	}

	handler := http.Handler(service.NewServer(m))
	if *role == "coordinator" {
		mux := http.NewServeMux()
		mux.Handle("/cluster/v1/", http.StripPrefix("/cluster/v1", cluster.AuthHandler(m.Coordinator(), m.Traces(), *cToken)))
		mux.Handle("/", handler)
		handler = mux
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpserved: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bpserved: listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "bpserved: %v: draining\n", s)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "bpserved: %v\n", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	// Drain first (stop accepting work, interrupt jobs, stop the
	// embedded worker at its next trace chunk, flush the ledger,
	// compact the job table), then close the HTTP side.
	if err := m.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bpserved: drain: %v\n", err)
		srv.Close()
		os.Exit(1)
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "bpserved: shutdown: %v\n", err)
	}
	<-errCh // Serve has returned http.ErrServerClosed
	fmt.Fprintln(os.Stderr, "bpserved: drained, exiting")
}

// leaveTimeout bounds an exiting worker's leave request.
const leaveTimeout = 5 * time.Second

// runWorker runs the stateless worker role: dial the coordinator,
// pull chunks, push results, until SIGINT/SIGTERM, then leave.
func runWorker(node, join, token string) int {
	if join == "" {
		fmt.Fprintln(os.Stderr, "bpserved: -role worker requires -join <coordinator URL>")
		return 2
	}
	if node == "" {
		node = fmt.Sprintf("worker-%d", os.Getpid())
	}
	base := strings.TrimRight(join, "/") + "/cluster/v1"
	client := &cluster.HTTPClient{Base: base, Token: token}
	w := cluster.NewWorker(node, client, &cluster.RemoteTraces{Base: base, Token: token})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "bpserved: worker %s joining %s\n", node, base)
	err := w.Run(ctx)
	// Leave, so the coordinator re-queues this worker's lease and stops
	// cutting calls into a chunk for it now rather than never. The
	// signal that ended Run canceled ctx, so the leave gets a context of
	// its own.
	lctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), leaveTimeout)
	if lerr := client.Leave(lctx, node); lerr != nil {
		fmt.Fprintf(os.Stderr, "bpserved: worker %s: leaving: %v\n", node, lerr)
	}
	cancel()
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "bpserved: worker: %v\n", err)
		return 1
	}
	st := w.Stats()
	fmt.Fprintf(os.Stderr, "bpserved: worker %s exiting (chunks %d, computed %d)\n",
		node, st.ChunksRun, st.CellsComputed)
	return 0
}
