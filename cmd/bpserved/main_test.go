package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"bpred/internal/trace"
	"bpred/internal/workload"
)

// buildBinary compiles bpserved once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bpserved")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// proc is one running bpserved process. A goroutine reaps it, so the
// test's SIGTERM check and the cleanup that kills a process a failed
// test left running can both wait for its exit.
type proc struct {
	cmd  *exec.Cmd
	url  string        // a server's base URL
	done chan struct{} // closed once the process has exited
	err  error         // the exit status, set before done closes
}

// startProc launches bin with args and waits for a stderr line
// containing banner, returning the text after it. A cleanup kills and
// reaps the process if it is still running when the test ends.
func startProc(t *testing.T, bin, banner string, args ...string) (*proc, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("StderrPipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	t.Cleanup(func() {
		select {
		case <-p.done:
		default:
			cmd.Process.Kill()
			<-p.done
		}
	})
	announced := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), banner); ok {
				select {
				case announced <- rest:
				default:
				}
			}
		}
		// Wait only once stderr is drained, as exec requires.
		p.err = cmd.Wait()
		close(p.done)
	}()
	select {
	case rest := <-announced:
		return p, rest
	case <-time.After(30 * time.Second):
		t.Fatalf("%s %v never printed %q", bin, args, banner)
		return nil, ""
	}
}

// startServer launches the binary on an ephemeral port and parses the
// bound address from its stderr banner. extra flags are appended, so
// callers can select e.g. -role coordinator.
func startServer(t *testing.T, bin, dataDir string, extra ...string) *proc {
	t.Helper()
	args := []string{
		"-listen", "127.0.0.1:0",
		"-data", dataDir,
		"-workers", "1",
		"-drain-timeout", "60s",
	}
	p, addr := startProc(t, bin, "bpserved: listening on ", append(args, extra...)...)
	p.url = "http://" + addr
	return p
}

// sigterm sends SIGTERM and asserts a clean (exit 0) shutdown.
func (p *proc) sigterm(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case <-p.done:
		if p.err != nil {
			t.Fatalf("%s exited non-zero after SIGTERM: %v", p.cmd.Path, p.err)
		}
	case <-time.After(90 * time.Second):
		t.Fatalf("%s did not exit after SIGTERM", p.cmd.Path)
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s (%q): %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

// TestSIGTERMDrainRestartServe is the binary-level graceful-shutdown
// contract: SIGTERM during a running job drains it at a chunk
// boundary, flushes the checkpoint cache, persists the job table, and
// exits 0; a restarted server over the same data directory resumes
// the interrupted job from cache and serves its completed result.
func TestSIGTERMDrainRestartServe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := buildBinary(t)
	dataDir := t.TempDir()
	srv := startServer(t, bin, dataDir)

	// A workload big enough that the sweep takes a while: 95 configs
	// over 1M branches.
	prof, ok := workload.ProfileByName("espresso")
	if !ok {
		prof = workload.Profiles()[0]
	}
	tr := workload.Generate(prof, 77, 1_000_000)
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

	spec := fmt.Sprintf(`{"trace":%q,"scheme":"gshare","min_bits":4,"max_bits":13}`, info.Digest)
	resp, err = http.Post(srv.url+"/v1/jobs", "application/json", strings.NewReader(spec))
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

	// Catch the job running, then pull the plug.
	var st struct {
		State string `json:"state"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.State != "running" && st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		getJSON(t, srv.url+"/v1/jobs/"+ack.ID, &st)
	}
	if st.State == "done" {
		t.Log("job finished before SIGTERM; still exercising restart-serves-result")
	}
	srv.sigterm(t)

	// The job table must have survived.
	if _, err := os.Stat(filepath.Join(dataDir, "jobs.json")); err != nil {
		t.Fatalf("job table not persisted: %v", err)
	}

	// Restart over the same data directory: the job resumes (or, if it
	// finished, its result is simply served).
	srv2 := startServer(t, bin, dataDir)
	defer srv2.sigterm(t)

	deadline = time.Now().Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("resumed job stuck in %q", st.State)
		}
		getJSON(t, srv2.url+"/v1/jobs/"+ack.ID, &st)
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("resumed job ended %q", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	var res struct {
		Partial    bool `json:"partial"`
		CellsTotal int  `json:"cells_total"`
		Cells      []struct {
			MispredictRate float64 `json:"mispredict_rate"`
		} `json:"cells"`
	}
	if code := getJSON(t, srv2.url+"/v1/jobs/"+ack.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result status = %d", code)
	}
	if res.Partial || len(res.Cells) != res.CellsTotal || res.CellsTotal == 0 {
		t.Fatalf("restarted result = partial=%v cells=%d/%d", res.Partial, len(res.Cells), res.CellsTotal)
	}
}
