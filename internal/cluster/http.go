package cluster

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"bpred/internal/trace"
)

// The HTTP transport keeps workers pull-only: the coordinator exposes
// Handler (cmd/bpserved mounts it under /cluster/v1/), workers dial
// in with HTTPClient + RemoteTraces, and Next long-polls so no
// inbound connectivity to workers is ever needed.

// TraceOpener serves a stored trace's canonical BPT2 bytes so workers
// can replicate it; the service's TraceStore satisfies it.
type TraceOpener interface {
	Open(digest string) (io.ReadCloser, error)
}

// nextRequest is the wire form of a Next long-poll.
type nextRequest struct {
	Worker string `json:"worker"`
	WaitMS int64  `json:"wait_ms,omitempty"`
}

// completeRequest is the wire form of a Complete delivery.
type completeRequest struct {
	Worker string      `json:"worker"`
	Result ChunkResult `json:"result"`
}

// maxPollWait caps a single long-poll so dead clients release their
// handler goroutines.
const maxPollWait = time.Minute

// Handler exposes a Coordinator over HTTP:
//
//	POST /join              {"worker": id}
//	POST /next              {"worker": id, "wait_ms": n} -> Work (empty on poll timeout)
//	POST /complete          {"worker": id, "result": ChunkResult}
//	GET  /trace/{digest}    canonical BPT2 stream
//
// Coordinator errors map onto statuses the client folds back into
// sentinel errors: 404 -> ErrUnknownWorker, 503 -> ErrShutdown.
//
// Handler is the open (trusted-network) transport. AuthHandler wraps
// it with a shared fleet token for deployments whose cluster port is
// reachable by tenants — without it, anyone who can reach the port
// can pull any trace by digest and inject completions.
func Handler(c *Coordinator, traces TraceOpener) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		var req nextRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
			httpError(w, http.StatusBadRequest, "bad join request")
			return
		}
		if err := c.Join(r.Context(), req.Worker); err != nil {
			coordError(w, err)
			return
		}
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("POST /next", func(w http.ResponseWriter, r *http.Request) {
		var req nextRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
			httpError(w, http.StatusBadRequest, "bad next request")
			return
		}
		wait := time.Duration(req.WaitMS) * time.Millisecond
		if wait <= 0 || wait > maxPollWait {
			wait = maxPollWait
		}
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		work, err := c.Next(ctx, req.Worker)
		if err != nil {
			if ctx.Err() != nil && r.Context().Err() == nil {
				writeJSON(w, Work{}) // poll timeout: empty work, client re-polls
				return
			}
			coordError(w, err)
			return
		}
		writeJSON(w, work)
	})
	mux.HandleFunc("POST /complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
			httpError(w, http.StatusBadRequest, "bad complete request")
			return
		}
		if err := c.Complete(r.Context(), req.Worker, req.Result); err != nil {
			coordError(w, err)
			return
		}
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("GET /trace/{digest}", func(w http.ResponseWriter, r *http.Request) {
		if traces == nil {
			httpError(w, http.StatusNotFound, "no trace source")
			return
		}
		rc, err := traces.Open(r.PathValue("digest"))
		if err != nil {
			httpError(w, http.StatusNotFound, "no such trace")
			return
		}
		defer rc.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := io.Copy(w, rc); err != nil {
			return // client went away mid-stream; nothing to salvage
		}
	})
	return mux
}

// AuthHandler wraps Handler with a shared bearer token: every request
// must carry "Authorization: Bearer <token>" (constant-time compared)
// or gets 401. An empty token returns the open Handler unchanged.
// HTTPClient.Token and RemoteTraces.Token present the token.
func AuthHandler(c *Coordinator, traces TraceOpener, token string) http.Handler {
	inner := Handler(c, traces)
	if token == "" {
		return inner
	}
	want := []byte(token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="bpcluster"`)
			httpError(w, http.StatusUnauthorized, "missing or bad cluster token")
			return
		}
		inner.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return // headers already sent; the client sees the truncation
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": msg}); err != nil {
		return
	}
}

func coordError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownWorker):
		httpError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrShutdown):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// HTTPClient implements CoordinatorClient against a coordinator's
// mounted Handler.
type HTTPClient struct {
	// Base is the coordinator's cluster API prefix, e.g.
	// "http://host:8149/cluster/v1".
	Base string
	// HTTP is the client to use (default: a fresh http.Client; no
	// overall timeout, because Next long-polls).
	HTTP *http.Client
	// PollWait is the long-poll budget sent with Next (default 25s).
	PollWait time.Duration
	// Token, when non-empty, is sent as a bearer token with every
	// request (AuthHandler deployments).
	Token string
}

func (h *HTTPClient) client() *http.Client {
	if h.HTTP != nil {
		return h.HTTP
	}
	return http.DefaultClient
}

// Join implements CoordinatorClient.
func (h *HTTPClient) Join(ctx context.Context, workerID string) error {
	return h.post(ctx, "/join", nextRequest{Worker: workerID}, nil)
}

// Next implements CoordinatorClient. A server-side poll timeout
// yields an empty Work, which the worker loop treats as "ask again".
func (h *HTTPClient) Next(ctx context.Context, workerID string) (Work, error) {
	wait := h.PollWait
	if wait <= 0 {
		wait = 25 * time.Second
	}
	var work Work
	err := h.post(ctx, "/next", nextRequest{Worker: workerID, WaitMS: wait.Milliseconds()}, &work)
	return work, err
}

// Complete implements CoordinatorClient.
func (h *HTTPClient) Complete(ctx context.Context, workerID string, res ChunkResult) error {
	return h.post(ctx, "/complete", completeRequest{Worker: workerID, Result: res}, nil)
}

func (h *HTTPClient) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("cluster: encoding %s request: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.Base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if h.Token != "" {
		req.Header.Set("Authorization", "Bearer "+h.Token)
	}
	resp, err := h.client().Do(req)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", path, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if out == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	case http.StatusNotFound:
		return ErrUnknownWorker
	case http.StatusServiceUnavailable:
		return ErrShutdown
	case http.StatusUnauthorized:
		return fmt.Errorf("cluster: %s: coordinator rejected the cluster token", path)
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
}

// remoteTraceCap bounds RemoteTraces' decoded cache. A worker runs one
// chunk at a time and a sweep replays one trace for all its chunks, so
// a few entries hold the working set; past the cap the oldest fetch is
// dropped.
const remoteTraceCap = 4

// RemoteTraces fetches traces from the coordinator's /trace endpoint,
// verifies the content digest, and caches the last remoteTraceCap
// decoded traces (a worker replays the same trace for every chunk of
// a sweep).
type RemoteTraces struct {
	// Base is the coordinator's cluster API prefix.
	Base string
	// HTTP is the client to use (default http.DefaultClient).
	HTTP *http.Client
	// Token is the shared fleet bearer token (AuthHandler
	// deployments); empty sends no credentials.
	Token string

	mu    sync.Mutex
	cache map[string]*trace.Trace //bplint:guardedby mu
	order []string                //bplint:guardedby mu // cached digests, oldest first
}

// Trace implements TraceProvider. ctx cancels the download and the
// decode mid-replication.
func (p *RemoteTraces) Trace(ctx context.Context, digest string) (*trace.Trace, error) {
	p.mu.Lock()
	if t, ok := p.cache[digest]; ok {
		p.mu.Unlock()
		return t, nil
	}
	p.mu.Unlock()

	client := p.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.Base+"/trace/"+digest, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetching trace %s: %w", digest, err)
	}
	if p.Token != "" {
		req.Header.Set("Authorization", "Bearer "+p.Token)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetching trace %s: %w", digest, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: fetching trace %s: %s", digest, resp.Status)
	}
	// trace.Read sniffs the magic, so replication works for both wire
	// formats, and caps what a lying header can make it preallocate.
	tr, err := trace.Read(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: decoding trace %s: %w", digest, err)
	}
	got := tr.Digest()
	if hex.EncodeToString(got[:]) != digest {
		return nil, fmt.Errorf("cluster: trace %s: content digest mismatch", digest)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cache == nil {
		p.cache = make(map[string]*trace.Trace)
	}
	if _, ok := p.cache[digest]; !ok {
		p.cache[digest] = tr
		p.order = append(p.order, digest)
		if len(p.order) > remoteTraceCap {
			delete(p.cache, p.order[0])
			p.order = slices.Delete(p.order, 0, 1)
		}
	}
	return tr, nil
}
