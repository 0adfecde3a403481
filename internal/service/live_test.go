//go:build unix

package service

import (
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestHeldTierShowsLiveProgress holds a job halfway through its only
// tier — its trace streams from a pipe the test feeds — and requires
// GET /v1/jobs/{id} to show simulated branches before the tier ends,
// and a second job to finish meanwhile on the embedded worker's other
// pull loop.
func TestHeldTierShowsLiveProgress(t *testing.T) {
	m, ts := newTestServer(t, func(c *Config) { c.StreamBranches = 1000 })
	const n = 128 * 1024
	held := upload(t, ts, encodeBPT1(t, genTrace(t, n, 51)))
	m.traces.mu.Lock()
	path := m.traces.tracePathLocked(held.Digest)
	m.traces.mu.Unlock()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Fatalf("Mkfifo: %v", err)
	}

	ack, code := submit(t, ts, JobSpec{Trace: held.Digest, Scheme: "gshare", Tiers: []int{6}})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	// A non-blocking open of the write end fails until the worker has
	// opened the read end.
	var feed *os.File
	deadline := time.Now().Add(30 * time.Second)
	for feed == nil {
		if feed, err = os.OpenFile(path, os.O_WRONLY|syscall.O_NONBLOCK, 0); err != nil {
			if time.Now().After(deadline) {
				t.Fatalf("the worker never opened the trace: %v", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	defer feed.Close()
	if _, err := feed.Write(raw[:len(raw)/2]); err != nil {
		t.Fatalf("feeding the first half: %v", err)
	}
	var st JobStatus
	for deadline = time.Now().Add(30 * time.Second); st.Progress.Branches == 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s showed no branches mid-tier: %+v", ack.ID, st)
		}
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ack.ID, nil, &st)
	}
	if st.State != StateRunning || st.CellsDone != 0 {
		t.Fatalf("held job = %s with %d cells done, want running with none", st.State, st.CellsDone)
	}

	other := upload(t, ts, encodeBPT1(t, genTrace(t, 500, 52)))
	ack2, code := submit(t, ts, JobSpec{Trace: other.Digest, Scheme: "gshare", Tiers: []int{4}})
	if code != http.StatusAccepted {
		t.Fatalf("second submit = %d", code)
	}
	if st2 := waitTerminal(t, ts, ack2.ID); st2.State != StateDone {
		t.Fatalf("second job = %s (%s), want done while the first is held", st2.State, st2.Error)
	}

	if _, err := feed.Write(raw[len(raw)/2:]); err != nil {
		t.Fatalf("feeding the second half: %v", err)
	}
	if err := feed.Close(); err != nil {
		t.Fatalf("closing the pipe: %v", err)
	}
	st = waitTerminal(t, ts, ack.ID)
	if st.State != StateDone || st.Progress.Branches != uint64(st.CellsTotal)*n {
		t.Fatalf("held job = %s (%s), branches %d, want done with %d", st.State, st.Error, st.Progress.Branches, uint64(st.CellsTotal)*n)
	}
}
