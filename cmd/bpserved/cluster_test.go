package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"testing"
	"time"

	"bpred/internal/trace"
	"bpred/internal/workload"
)

// TestRoleFlagValidation pins the CLI contract for the cluster roles:
// misconfiguration is a usage error (exit 2) with a diagnostic naming
// the broken flag, before any socket is bound or directory created.
func TestRoleFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := buildBinary(t)
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown role", []string{"-role", "bogus", "-data", t.TempDir()}, `unknown -role "bogus"`},
		{"worker without join", []string{"-role", "worker"}, "-join"},
		{"coordinator without data", []string{"-role", "coordinator"}, "-data required"},
		{"single without data", nil, "-data required"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("args %v: err = %v (output %q), want an exit error", tc.args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("args %v: exit = %d, want 2\n%s", tc.args, code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("args %v: stderr = %q, want it to contain %q", tc.args, out, tc.want)
			}
		})
	}
}

// startWorkerProc launches a -role worker process dialed into join
// and waits for its joining banner.
func startWorkerProc(t *testing.T, bin, node, join string) *proc {
	t.Helper()
	p, _ := startProc(t, bin, "joining", "-role", "worker", "-node", node, "-join", join)
	return p
}

// submitAndWait submits a job spec to the server at url and polls
// until the job is done, failing the test if it ends any other way.
func submitAndWait(t *testing.T, url, spec string) string {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatalf("decoding submit ack: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	var st struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	deadline := time.Now().Add(120 * time.Second)
	for st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("job ended %q: %s", st.State, st.Error)
		}
		getJSON(t, url+"/v1/jobs/"+ack.ID, &st)
		time.Sleep(10 * time.Millisecond)
	}
	return ack.ID
}

// metric reads one unlabeled integer sample from the server's
// /metrics page.
func metric(t *testing.T, url, name string) int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			var n int
			if _, err := fmt.Sscan(v, &n); err != nil {
				t.Fatalf("%s = %q: %v", name, v, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no sample %s (scan error %v)", name, sc.Err())
	return 0
}

// TestClusterCoordinatorWorkerSmoke is the binary-level cluster path:
// a -role coordinator process plus one external -role worker process
// dialed in over HTTP complete a job end to end, and both shut down
// cleanly on SIGTERM. The worker leaves as it exits, so the next job
// runs each tier as one chunk.
func TestClusterCoordinatorWorkerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := buildBinary(t)
	srv := startServer(t, bin, t.TempDir(), "-role", "coordinator", "-node", "c1")
	worker := startWorkerProc(t, bin, "wx", srv.url)

	prof, ok := workload.ProfileByName("espresso")
	if !ok {
		prof = workload.Profiles()[0]
	}
	tr := workload.Generate(prof, 42, 50_000)
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
		t.Fatalf("Close: %v", err)
	}
	resp, err := http.Post(srv.url+"/v1/traces", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	var info struct {
		Digest string `json:"digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decoding upload response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}

	id := submitAndWait(t, srv.url, fmt.Sprintf(`{"trace":%q,"scheme":"gshare","tiers":[4,5,6]}`, info.Digest))

	var res struct {
		Partial    bool `json:"partial"`
		CellsTotal int  `json:"cells_total"`
		Cells      []struct {
			Fingerprint string `json:"fingerprint"`
		} `json:"cells"`
	}
	if code := getJSON(t, srv.url+"/v1/jobs/"+id+"/result", &res); code != http.StatusOK {
		t.Fatalf("result status = %d", code)
	}
	if res.Partial || res.CellsTotal == 0 || len(res.Cells) != res.CellsTotal {
		t.Fatalf("cluster job result = partial=%v cells=%d/%d", res.Partial, len(res.Cells), res.CellsTotal)
	}

	// Worker first: SIGTERM must yield exit 0.
	worker.sigterm(t)

	// The worker left before it exited: a two-tier job is two chunks,
	// not one per tier for each worker that ever joined.
	const dispatched = "bpcluster_chunks_dispatched_total"
	before := metric(t, srv.url, dispatched)
	submitAndWait(t, srv.url, fmt.Sprintf(`{"trace":%q,"scheme":"gshare","tiers":[7,8]}`, info.Digest))
	n := metric(t, srv.url, dispatched) - before
	srv.sigterm(t)
	if n != 2 {
		t.Fatalf("a two-tier job after the worker left dispatched %d chunks, want 2", n)
	}
}
