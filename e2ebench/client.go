package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"bpred/internal/service"
)

// server is one in-process sweep service and the single client that
// drives it.
type server struct {
	dir     string
	mgr     *service.Manager
	ts      *httptest.Server
	client  *http.Client
	uploads *[]uploadSpan // every upload of the run, across set-ups
}

// uploadSpan is one trace upload as the client saw it.
type uploadSpan struct {
	d     time.Duration
	bytes int
}

// startServer opens a manager over a fresh data directory and serves
// its API on a loopback listener. Uploads are logged to uploads.
func startServer(dir string, cfg service.Config, uploads *[]uploadSpan) (*server, error) {
	cfg.DataDir = dir
	m, err := service.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(service.NewServer(m))
	return &server{dir: dir, mgr: m, ts: ts, client: ts.Client(), uploads: uploads}, nil
}

// close stops the listener, drains the manager, and deletes the data
// directory.
func (s *server) close() error {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.mgr.Drain(ctx)
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// call makes one API request and decodes a JSON reply into out. It
// returns the reply's size in bytes.
func (s *server) call(method, path string, body io.Reader, want int, out any) (int, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, body)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return len(raw), fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return len(raw), fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return len(raw), nil
}

// upload posts one trace stream of n bytes and returns its stored
// metadata.
func (s *server) upload(body io.Reader, n int) (service.TraceInfo, error) {
	var info service.TraceInfo
	start := time.Now()
	if _, err := s.call(http.MethodPost, "/v1/traces", body, http.StatusOK, &info); err != nil {
		return info, err
	}
	*s.uploads = append(*s.uploads, uploadSpan{time.Since(start), n})
	return info, nil
}

// uploadFile posts the trace file at path, streaming it from disk so
// the upload buffer is not on the harness's heap.
func (s *server) uploadFile(path string) (service.TraceInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return service.TraceInfo{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return service.TraceInfo{}, err
	}
	return s.upload(f, int(fi.Size()))
}

// submitReply is the part of the submit acknowledgement the client
// reads.
type submitReply struct {
	ID      string `json:"id"`
	Deduped bool   `json:"deduped"`
}

// submit enqueues one job. A deduplicated submission is an error: every
// op must do its own work.
func (s *server) submit(spec service.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	var ack submitReply
	if _, err := s.call(http.MethodPost, "/v1/jobs", bytes.NewReader(body), http.StatusAccepted, &ack); err != nil {
		return "", err
	}
	if ack.Deduped {
		return "", fmt.Errorf("job %s was deduplicated", ack.ID)
	}
	return ack.ID, nil
}

// status fetches one job's state.
func (s *server) status(id string) (service.JobStatus, error) {
	var st service.JobStatus
	_, err := s.call(http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &st)
	return st, err
}

// result fetches a finished job's payload and its size in bytes.
func (s *server) result(id string) (*service.JobResult, int, error) {
	var res service.JobResult
	n, err := s.call(http.MethodGet, "/v1/jobs/"+id+"/result", nil, http.StatusOK, &res)
	return &res, n, err
}

// poller detects job completion by polling GET /v1/jobs/{id}. The
// job's expected time is the median server-side time (FinishedAt −
// SubmittedAt) of the earlier jobs in the same slot of an op. The
// poller sleeps through the first half of it, since no job finishes
// that early, and then polls with a wait that doubles from minPoll up
// to a cap of 1/pollDivisor of it. So detection lags completion by well
// under 1% of a job, and the polls that would only find the job still
// running are not sent. The estimate comes from the server's
// timestamps, not from when a poll saw completion, so the polling
// cannot feed back into it. The progress stream is not used: it ticks
// every 200 ms, which would quantize every op time.
type poller struct {
	heap  *heapPeak
	polls int                     // status requests made so far
	past  map[int][]time.Duration // server-side job times by slot
}

const (
	minPoll     = 10 * time.Microsecond
	maxPoll     = 5 * time.Millisecond
	pollDivisor = 200
)

// await polls until the job in the given slot of its op is terminal.
// It returns the final status, the time the poll that saw it was sent,
// and the time its reply arrived.
func (p *poller) await(s *server, id string, slot int) (st service.JobStatus, sent, seen time.Time, err error) {
	wait, limit := minPoll, time.Millisecond
	if past := p.past[slot]; len(past) > 0 {
		sorted := append([]time.Duration(nil), past...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		expect := sorted[len(sorted)/2]
		limit = min(max(expect/pollDivisor, minPoll), maxPoll)
		time.Sleep(expect / 2)
	}
	for {
		sent = time.Now()
		st, err = s.status(id)
		p.polls++
		if err != nil {
			return st, sent, time.Time{}, err
		}
		seen = time.Now()
		p.heap.sample()
		switch st.State {
		case service.StateDone:
			if p.past == nil {
				p.past = map[int][]time.Duration{}
			}
			p.past[slot] = append(p.past[slot], st.FinishedAt.Sub(st.SubmittedAt))
			return st, sent, seen, nil
		case service.StateQueued, service.StateRunning:
		default:
			return st, sent, seen, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
		time.Sleep(wait)
		wait = min(2*wait, limit)
	}
}
