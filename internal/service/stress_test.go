package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"bpred/internal/cluster"
)

// TestStressSingleFlight hammers one server with 32 concurrent
// clients submitting overlapping specs and asserts the exactly-once
// execution guarantee: across all jobs, each distinct (trace digest,
// warmup, config fingerprint) cell is simulated exactly once — every
// other resolution comes from the BPC1 cache or another job's
// in-flight execution — and identical specs collapse onto one job id.
func TestStressSingleFlight(t *testing.T) {
	m, ts := newTestServer(t, func(c *Config) {
		c.Workers = 4
		c.QueueDepth = 64
	})
	tr := genTrace(t, 20000, 42)
	info := upload(t, ts, encodeBPT1(t, tr))

	// Four overlapping specs: the tier sets overlap (4 ⊂ {4,5,6}),
	// gas and gshare share nothing (different fingerprints), and the
	// warmup variant duplicates a tier set under a different cache
	// binding.
	specs := []JobSpec{
		{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4}},
		{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4, 5, 6}},
		{Trace: info.Digest, Scheme: "gas", Tiers: []int{5, 6}},
		{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4, 5}, Warmup: 500},
	}

	// The distinct cell count over all specs, keyed exactly like the
	// service's single-flight table.
	distinct := make(map[cluster.Key]bool)
	for _, spec := range specs {
		digest, _, configs, err := spec.validate()
		if err != nil {
			t.Fatalf("spec %+v: %v", spec, err)
		}
		for _, c := range configs {
			distinct[cellKey(digest, spec.Warmup, c.Fingerprint())] = true
		}
	}

	const clients = 32
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ack, code, err := submitRaw(ts, specs[i%len(specs)])
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if code != 200 && code != 202 {
				t.Errorf("client %d: submit = %d", i, code)
				return
			}
			ids[i] = ack.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Identical specs must have collapsed onto one job each.
	bySpec := make(map[int]string)
	for i, id := range ids {
		k := i % len(specs)
		if prev, ok := bySpec[k]; ok && prev != id {
			t.Errorf("spec %d produced two jobs: %s and %s", k, prev, id)
		}
		bySpec[k] = id
	}

	for _, id := range bySpec {
		st := waitTerminal(t, ts, id)
		if st.State != StateDone {
			t.Fatalf("job %s = %s (%s)", id, st.State, st.Error)
		}
		if st.CellsDone != uint64(st.CellsTotal) {
			t.Fatalf("job %s resolved %d of %d cells", id, st.CellsDone, st.CellsTotal)
		}
	}

	got := m.Global().Snapshot().ConfigsCompleted
	if got != uint64(len(distinct)) {
		t.Fatalf("ConfigsCompleted = %d, want exactly %d distinct cells (dedup failed)",
			got, len(distinct))
	}
}

// submitRaw posts a job spec without touching testing.T, so it is
// safe to call from client goroutines.
func submitRaw(ts *httptest.Server, spec JobSpec) (submitResponse, int, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return submitResponse{}, 0, err
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		return submitResponse{}, 0, err
	}
	defer resp.Body.Close()
	var ack submitResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			return submitResponse{}, resp.StatusCode, err
		}
	}
	return ack, resp.StatusCode, nil
}
