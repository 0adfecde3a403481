package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"bpred/internal/atomicfile"
	"bpred/internal/trace"
)

// pipelineGoroutines counts the live goroutines running a
// trace.FanOut stage — the encoder and digest of an ingest.
func pipelineGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "bpred/internal/trace.FanOut") {
			count++
		}
	}
	return count
}

// pipelineJoined reports whether every pipeline goroutine is gone. A
// joined stage goroutine can still be on its way out when the join
// returns, so it polls briefly; a stage blocked for good never leaves.
func pipelineJoined() bool {
	deadline := time.Now().Add(2 * time.Second)
	for pipelineGoroutines() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// cancelAfterReader cancels a context once n bytes have been read
// through it: an uploader that disconnects mid-body.
type cancelAfterReader struct {
	r      io.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	if c.n <= 0 {
		c.cancel()
	}
	p = p[:min(len(p), max(c.n, 1))]
	n, err := c.r.Read(p)
	c.n -= n
	return n, err
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct{ limit int }

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errDiskFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestIngestLifecycle pins the ingest pipeline's error paths: a
// truncated body, a header over the record cap and a mid-upload cancel
// each return their typed error, and none leaves a pipeline goroutine,
// a temp file or a stored trace behind. A failing BPT2 write, injected
// below IngestAs into transcode, returns the writer's error and also
// joins both stages; the temp-file cleanup it would take in IngestAs
// is the deferred one the other cases check.
func TestIngestLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := NewTraceStore(dir, 50_000, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := genTrace(t, 30_000, 5)
	data := encodeBPT1(t, tr)
	clean := func(what string) {
		t.Helper()
		if !pipelineJoined() {
			t.Fatalf("%s: %d pipeline goroutines outlived the call", what, pipelineGoroutines())
		}
		tmps, err := filepath.Glob(filepath.Join(dir, atomicfile.TempPattern))
		if err != nil {
			t.Fatal(err)
		}
		if len(tmps) != 0 {
			t.Fatalf("%s: temp files left behind: %v", what, tmps)
		}
		if st.Len() != 0 {
			t.Fatalf("%s: a failed ingest stored a trace", what)
		}
	}

	_, err = st.Ingest(bytes.NewReader(data[:len(data)*2/3]))
	if err == nil || !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) ||
		!strings.HasPrefix(err.Error(), "trace: reading record ") {
		t.Fatalf("truncated body: err = %v, want a record read error at EOF", err)
	}
	clean("truncated body")

	_, err = st.Ingest(bytes.NewReader(rawBPT1("big", 0, 50_001, nil)))
	if !errors.Is(err, ErrTraceTooLarge) || !strings.Contains(err.Error(), "header promises 50001 records") {
		t.Fatalf("header over cap: err = %v, want ErrTraceTooLarge from the header", err)
	}
	clean("header over cap")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := &cancelAfterReader{r: bytes.NewReader(data), n: len(data) / 2, cancel: cancel}
	if _, err := st.IngestAs(ctx, body, "", TraceQuota{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-upload cancel: err = %v, want context.Canceled", err)
	}
	clean("mid-upload cancel")

	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_, err = transcode(context.Background(), rd, &failingWriter{limit: 1000}, 50_000)
	if !errors.Is(err, errDiskFull) || !strings.HasPrefix(err.Error(), "trace: writing block") {
		t.Fatalf("failing BPT2 write: err = %v, want the writer's error", err)
	}
	clean("failing BPT2 write")

	info, err := st.Ingest(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if sum := tr.Digest(); info.Digest != hex.EncodeToString(sum[:]) || info.Branches != uint64(tr.Len()) {
		t.Fatalf("ingest after the failures: %+v", info)
	}
	if !pipelineJoined() {
		t.Fatalf("successful ingest: %d pipeline goroutines outlived the call", pipelineGoroutines())
	}
	if _, err := os.Stat(filepath.Join(dir, info.Digest+".bpt2")); err != nil {
		t.Fatal(err)
	}
}
