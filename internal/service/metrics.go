package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"bpred/internal/obs"
)

// handleMetrics renders Prometheus text exposition format. Output
// order is deterministic: service gauges first (fixed order, states
// sorted), then the coordinator's and the embedded worker's counters,
// then every obs-published counter set sorted by name with a fixed
// field order — so tests can compare runs textually and scrapers never
// see metrics flap in and out.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	m := s.m

	writeMetricHeader(&b, "bpserved_up", "gauge", "Whether the server is accepting work (0 while draining).")
	up := 1
	if draining, _ := m.Draining(); draining {
		up = 0
	}
	fmt.Fprintf(&b, "bpserved_up %d\n", up)

	writeMetricHeader(&b, "bpserved_uptime_seconds", "gauge", "Seconds since the server started.")
	fmt.Fprintf(&b, "bpserved_uptime_seconds %.3f\n", time.Since(m.started).Seconds())

	writeMetricHeader(&b, "bpserved_jobs", "gauge", "Jobs by lifecycle state.")
	counts := m.jobCountsByState()
	states := make([]string, 0, len(counts))
	for st := range counts {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(&b, "bpserved_jobs{state=%q} %d\n", st, counts[State(st)])
	}

	writeMetricHeader(&b, "bpserved_queue_depth", "gauge", "Jobs waiting for a worker.")
	fmt.Fprintf(&b, "bpserved_queue_depth %d\n", len(m.queue))
	writeMetricHeader(&b, "bpserved_queue_capacity", "gauge", "Queue slots before submissions see 429.")
	fmt.Fprintf(&b, "bpserved_queue_capacity %d\n", cap(m.queue))

	writeMetricHeader(&b, "bpserved_traces", "gauge", "Traces in the store.")
	fmt.Fprintf(&b, "bpserved_traces %d\n", m.Traces().Len())

	// The journal is compacted only when the server opens and when it
	// drains, so these grow with every job transition in between.
	lines, size := m.journal.stats()
	writeMetricHeader(&b, "bpserved_job_journal_records", "gauge", "Job transitions journaled since the job table was last compacted.")
	fmt.Fprintf(&b, "bpserved_job_journal_records %d\n", lines)
	writeMetricHeader(&b, "bpserved_job_journal_bytes", "gauge", "Bytes of job journal written since the job table was last compacted.")
	fmt.Fprintf(&b, "bpserved_job_journal_bytes %d\n", size)

	writeMetricHeader(&b, "bpserved_cells_in_flight", "gauge", "Sweep cells dispatched to the worker fleet and not yet settled.")
	fmt.Fprintf(&b, "bpserved_cells_in_flight %d\n", m.coord.CellsInFlight())

	// The coordinator's scheduling counters (cluster.Stats) and the
	// embedded worker's (cluster.WorkerStats), one series per field.
	// A remote worker prints its own on its exit line.
	st, ws := m.coord.Stats(), m.local.Stats()
	for _, cm := range []struct {
		name, help string
		value      uint64
	}{
		{"bpcluster_chunks_dispatched_total", "Chunks handed to workers.", st.ChunksDispatched},
		{"bpcluster_requeues_total", "Chunks re-queued after worker death or lease expiry.", st.Requeues},
		{"bpcluster_dup_cells_total", "Completed cells dropped because the ledger had already settled them.", st.DupCells},
		{"bpcluster_flush_errors_total", "Ledger checkpoint flushes that failed.", st.FlushErrors},
		{"bpcluster_stale_completions_total", "Completions tagged with another coordinator incarnation.", st.StaleCompletions},
		{"bpworker_chunks_run_total", "Chunks the embedded worker ran to completion.", ws.ChunksRun},
		{"bpworker_cells_computed_total", "Cells the embedded worker's kernels evaluated.", ws.CellsComputed},
	} {
		writeMetricHeader(&b, cm.name, "counter", cm.help)
		fmt.Fprintf(&b, "%s %d\n", cm.name, cm.value)
	}

	// Published counter sets (the manager's global set plus anything
	// else the process registered, e.g. embedded sweep runs). The
	// format requires all samples of one metric in a single group, so
	// iterate metric-major with the sets (already name-sorted) inner.
	sets := obs.Published()
	counterMetrics := []struct {
		name, help string
		value      func(obs.Snapshot) string
	}{
		{"bpsim_branches_total", "Simulated (predictor, branch) events, warmup included.",
			func(s obs.Snapshot) string { return fmt.Sprintf("%d", s.Branches) }},
		{"bpsim_chunks_total", "Processed (predictor, chunk) batches.",
			func(s obs.Snapshot) string { return fmt.Sprintf("%d", s.Chunks) }},
		{"bpsim_configs_completed_total", "Configurations fully simulated.",
			func(s obs.Snapshot) string { return fmt.Sprintf("%d", s.ConfigsCompleted) }},
		{"bpsim_configs_cached_total", "Configurations served from the checkpoint cache.",
			func(s obs.Snapshot) string { return fmt.Sprintf("%d", s.ConfigsCached) }},
		{"bpsim_configs_failed_total", "Configurations that errored.",
			func(s obs.Snapshot) string { return fmt.Sprintf("%d", s.ConfigsFailed) }},
		{"bpsim_tiers_completed_total", "Finished sweep tiers.",
			func(s obs.Snapshot) string { return fmt.Sprintf("%d", s.TiersCompleted) }},
		{"bpsim_tier_seconds_total", "Cumulative wall time in finished tiers.",
			func(s obs.Snapshot) string { return fmt.Sprintf("%.6f", s.TierTime.Seconds()) }},
	}
	for _, cm := range counterMetrics {
		writeMetricHeader(&b, cm.name, "counter", cm.help)
		for _, ns := range sets {
			fmt.Fprintf(&b, "%s{set=%q} %s\n", cm.name, ns.Name, cm.value(ns.Snapshot))
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	// A short write here means the scraper hung up; nothing to do.
	_, _ = w.Write([]byte(b.String()))
}

func writeMetricHeader(b *strings.Builder, name, kind, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}
