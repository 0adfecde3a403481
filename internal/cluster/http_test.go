package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
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
