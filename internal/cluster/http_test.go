package cluster

import (
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
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
