package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bpred/internal/core"
	"bpred/internal/sim"
)

// TestRemoteTracesRejectsLyingHeader serves header-only BPT1 and BPT2
// streams that promise 2^40 records. Trace must fail on the missing
// records, not size an allocation from the header's promise: that
// allocation would end the worker in an out-of-memory fatal error
// that recover cannot catch.
func TestRemoteTracesRejectsLyingHeader(t *testing.T) {
	header := func(magic string, blockLen uint64) []byte {
		b := []byte(magic)
		b = binary.AppendUvarint(b, 4)
		b = append(b, "liar"...)
		b = binary.AppendUvarint(b, 1)     // instructions
		b = binary.AppendUvarint(b, 1<<40) // promised records
		if blockLen > 0 {
			b = binary.AppendUvarint(b, blockLen)
		}
		return b
	}
	for name, body := range map[string][]byte{
		"bpt1": header("BPT1", 0),
		"bpt2": header("BPT2", 1024),
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				if _, err := w.Write(body); err != nil {
					t.Error(err)
				}
			}))
			defer srv.Close()
			rt := &RemoteTraces{Base: srv.URL}
			if tr, err := rt.Trace(context.Background(), "00"); err == nil {
				t.Fatalf("header-only %s stream promising 2^40 records decoded to %d records", name, tr.Len())
			}
		})
	}
}

// TestRemoteTracesCacheEvictsOldest fetches one trace more than the
// decoded cache holds: the oldest digest is evicted (refetching it goes
// back to the coordinator) while the newest is served from memory.
func TestRemoteTracesCacheEvictsOldest(t *testing.T) {
	opener := memOpener{}
	var digests []string
	for i := 0; i <= remoteTraceCap; i++ {
		tr := testTrace(t, 200, uint64(40+i))
		d := tr.Digest()
		hexDigest := fmt.Sprintf("%x", d[:])
		opener[hexDigest] = encodeBPT1(t, tr)
		digests = append(digests, hexDigest)
	}
	coord := NewCoordinator(Config{})
	defer coord.Stop()
	inner := Handler(coord, opener)
	var mu sync.Mutex
	gets := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d, ok := strings.CutPrefix(r.URL.Path, "/trace/"); ok {
			mu.Lock()
			gets[d]++
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	fetches := func(d string) int {
		mu.Lock()
		defer mu.Unlock()
		return gets[d]
	}

	rt := &RemoteTraces{Base: srv.URL}
	ctx := context.Background()
	for _, d := range digests {
		if _, err := rt.Trace(ctx, d); err != nil {
			t.Fatalf("Trace(%s): %v", d, err)
		}
	}
	newest, oldest := digests[len(digests)-1], digests[0]
	if _, err := rt.Trace(ctx, newest); err != nil {
		t.Fatalf("Trace(newest): %v", err)
	}
	if n := fetches(newest); n != 1 {
		t.Fatalf("newest trace fetched %d times, want 1 (cached)", n)
	}
	if _, err := rt.Trace(ctx, oldest); err != nil {
		t.Fatalf("Trace(oldest): %v", err)
	}
	if n := fetches(oldest); n != 2 {
		t.Fatalf("oldest trace fetched %d times, want 2 (evicted past the cap of %d)", n, remoteTraceCap)
	}
}

// postNext sends one raw /next long-poll and returns the response
// body, so a test can check the wire form itself.
func postNext(t *testing.T, base, worker string, waitMS int64) []byte {
	t.Helper()
	body, err := json.Marshal(nextRequest{Worker: worker, WaitMS: waitMS})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/next", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /next: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /next: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/next status = %s: %s", resp.Status, raw)
	}
	return bytes.TrimSpace(raw)
}

// TestNextWireContract pins /cluster/v1/next's body: {} when the
// server-side poll times out, which HTTPClient.Next returns as no
// chunk and no error, and {"chunk": {...}} when a chunk is dispatched.
func TestNextWireContract(t *testing.T) {
	coord := NewCoordinator(Config{})
	defer coord.Stop()
	srv := httptest.NewServer(Handler(coord, nil))
	defer srv.Close()
	ctx := runCtx(t)
	if err := coord.Join(ctx, "h1"); err != nil {
		t.Fatalf("Join: %v", err)
	}

	if got := postNext(t, srv.URL, "h1", 1); string(got) != "{}" {
		t.Fatalf("poll-timeout body = %s, want {}", got)
	}
	client := &HTTPClient{Base: srv.URL, PollWait: time.Millisecond}
	if ch, err := client.Next(ctx, "h1"); ch != nil || err != nil {
		t.Fatalf("HTTPClient.Next on a poll timeout = %+v, %v; want nil, nil", ch, err)
	}

	configs := []core.Config{{Scheme: core.SchemeGShare, RowBits: 2, ColBits: 4}}
	d := testDigest(12)
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunCells(ctx, d, 7, configs, nil)
		done <- err
	}()
	var body map[string]json.RawMessage
	if err := json.Unmarshal(postNext(t, srv.URL, "h1", 30_000), &body); err != nil {
		t.Fatalf("decoding the dispatch body: %v", err)
	}
	var ch Chunk
	if err := json.Unmarshal(body["chunk"], &ch); err != nil || len(body) != 1 {
		t.Fatalf("dispatch body = %v (%v), want exactly a chunk", body, err)
	}
	if ch.Trace != hex.EncodeToString(d[:]) || ch.Warmup != 7 || !slices.Equal(ch.Configs, configs) {
		t.Fatalf("dispatched chunk = %+v, want the call's one cell", ch)
	}
	if err := client.Complete(ctx, "h1", fakeResult(ch.ID, ch.Trace, ch.Warmup, ch.Configs)); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("RunCells: %v", err)
	}
}

// TestNextDecodesReplicaBodies answers /next the way coordinators
// that pushed settled cells to their workers did, with a "replicas"
// array beside the chunk or alone: HTTPClient.Next must still decode
// the chunk, and read a replicas-only body as no chunk.
func TestNextDecodesReplicaBodies(t *testing.T) {
	d := testDigest(13)
	chunk := Chunk{
		ID: 42, Trace: hex.EncodeToString(d[:]), Warmup: 3,
		Configs: []core.Config{{Scheme: core.SchemeGShare, RowBits: 2, ColBits: 4}},
	}
	type replicaCell struct { // the pushed cells' wire form
		Trace       string      `json:"trace"`
		Warmup      uint64      `json:"warmup"`
		Fingerprint string      `json:"fingerprint"`
		Metrics     sim.Metrics `json:"metrics"`
	}
	replicas := []replicaCell{{Trace: chunk.Trace, Warmup: 3, Fingerprint: "cfg1|s2|r0|c4", Metrics: fakeCell("").Metrics}}
	var body []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := w.Write(body); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()
	client := &HTTPClient{Base: srv.URL}
	ctx := runCtx(t)
	var err error

	body, err = json.Marshal(map[string]any{"chunk": chunk, "replicas": replicas})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := client.Next(ctx, "h1")
	if err != nil || ch == nil || !reflect.DeepEqual(*ch, chunk) {
		t.Fatalf("Next = %+v, %v; want %+v", ch, err, chunk)
	}

	body, err = json.Marshal(map[string]any{"replicas": replicas})
	if err != nil {
		t.Fatal(err)
	}
	if ch, err := client.Next(ctx, "h1"); ch != nil || err != nil {
		t.Fatalf("Next on a replicas-only body = %+v, %v; want nil, nil", ch, err)
	}
}

// leaveFleet joins w1 and w2 over HTTP to a fresh coordinator with no
// lease timeout, so only a leave can take a chunk back, and returns
// the coordinator, the client and ten gshare configs.
func leaveFleet(t *testing.T) (*Coordinator, *HTTPClient, []core.Config) {
	t.Helper()
	coord := NewCoordinator(Config{})
	t.Cleanup(func() { coord.Stop() })
	srv := httptest.NewServer(Handler(coord, nil))
	t.Cleanup(srv.Close)
	client := &HTTPClient{Base: srv.URL}
	for _, id := range []string{"w1", "w2"} {
		if err := client.Join(runCtx(t), id); err != nil {
			t.Fatalf("Join %s: %v", id, err)
		}
	}
	var configs []core.Config
	for rows := 0; rows < 10; rows++ {
		configs = append(configs, core.Config{Scheme: core.SchemeGShare, RowBits: rows, ColBits: 4})
	}
	return coord, client, configs
}

// TestLeaveOverHTTP: once one of two joined workers leaves over HTTP
// (twice, as a leave is idempotent), the coordinator stops counting
// it, and the next 10-cell call becomes one chunk, not two.
func TestLeaveOverHTTP(t *testing.T) {
	coord, client, configs := leaveFleet(t)
	ctx := runCtx(t)
	for i := 0; i < 2; i++ {
		if err := client.Leave(ctx, "w2"); err != nil {
			t.Fatalf("Leave #%d: %v", i+1, err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunCells(ctx, testDigest(14), 0, configs, nil)
		done <- err
	}()
	ch := pullAndComplete(t, coord, "w1")
	if err := <-done; err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	if !slices.Equal(ch.Configs, configs) {
		t.Fatalf("chunk holds %d cells, want all %d", len(ch.Configs), len(configs))
	}
	if st := coord.Stats(); st.ChunksDispatched != 1 || st.Requeues != 0 {
		t.Fatalf("stats = %+v, want one chunk dispatched and none re-queued", st)
	}
}

// TestLeaveRequeuesLease: a worker that leaves over HTTP while it
// holds a lease gives the chunk back at once, and the worker left
// runs it after the call's other chunk.
func TestLeaveRequeuesLease(t *testing.T) {
	coord, client, configs := leaveFleet(t)
	ctx := runCtx(t)
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunCells(ctx, testDigest(15), 0, configs, nil)
		done <- err
	}()
	held, err := client.Next(ctx, "w2")
	if err != nil || held == nil {
		t.Fatalf("Next(w2) = %+v, %v; want a chunk", held, err)
	}
	if err := client.Leave(ctx, "w2"); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if got := coord.Stats().Requeues; got != 1 {
		t.Fatalf("Requeues after the leave = %d, want 1", got)
	}
	pullAndComplete(t, coord, "w1")
	again := pullAndComplete(t, coord, "w1")
	if again.ID != held.ID || !slices.Equal(again.Configs, held.Configs) {
		t.Fatalf("second chunk = %d %+v, want the re-queued %d %+v", again.ID, again.Configs, held.ID, held.Configs)
	}
	if err := <-done; err != nil {
		t.Fatalf("RunCells: %v", err)
	}
}
