package sim

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bpred/internal/core"
	"bpred/internal/rng"
	"bpred/internal/trace"
)

// TestStreamEquivalence is the correctness contract of the streaming
// executor: driving a sweep from a BPT2 file (one window of blocks
// resident at a time) or a BPT1 byte stream yields metrics
// bit-identical to the in-memory path, across warmup and chunk
// geometry, for every axis shape including metered and unfusable
// configs.
func TestStreamEquivalence(t *testing.T) {
	tr := kernelTrace(21, 20_011)
	dir := t.TempDir()
	p2 := filepath.Join(dir, "stream.bpt2")
	if err := trace.WriteFile2(p2, tr, 0); err != nil {
		t.Fatal(err)
	}
	var b1 bytes.Buffer
	w, err := trace.NewWriter(&b1, tr.Name, tr.Instructions, uint64(tr.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tr.Branches {
		if err := w.WriteBranch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	opts := []Options{
		{},
		{Warmup: 1037},
		{Warmup: 3, Chunk: 511},
		{Warmup: 25_000, Chunk: 7}, // warmup exceeds the trace
	}
	for name, configs := range configAxes() {
		for oi, opt := range opts {
			want, err := RunConfigsCtx(context.Background(), configs, tr, opt)
			if err != nil {
				t.Fatalf("%s/opt%d: in-memory: %v", name, oi, err)
			}
			fr, err := trace.OpenFile(p2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunConfigsStream(context.Background(), configs, fr, opt)
			if cerr := fr.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			if err != nil {
				t.Fatalf("%s/opt%d: streaming: %v", name, oi, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/opt%d: BPT2-streamed metrics diverge from in-memory", name, oi)
			}
			r1, err := trace.NewReader(bytes.NewReader(b1.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			got1, err := RunConfigsStream(context.Background(), configs, r1, opt)
			if err != nil {
				t.Fatalf("%s/opt%d: BPT1 streaming: %v", name, oi, err)
			}
			if !reflect.DeepEqual(got1, want) {
				t.Fatalf("%s/opt%d: BPT1-streamed metrics diverge from in-memory", name, oi)
			}
		}
	}
}

// TestStreamCancel checks the partial-result contract: a canceled
// stream returns ctx.Err() with every entry zero.
func TestStreamCancel(t *testing.T) {
	tr := kernelTrace(5, 10_000)
	configs := []core.Config{
		{Scheme: core.SchemeGShare, RowBits: 8, ColBits: 2},
		{Scheme: core.SchemeGShare, RowBits: 9, ColBits: 2},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := RunConfigsStream(ctx, configs, tr.NewSource().(trace.BatchSource), Options{Chunk: 64})
	if err == nil {
		t.Fatal("canceled stream returned no error")
	}
	for i, m := range got {
		if m != (Metrics{}) {
			t.Fatalf("entry %d non-zero after cancellation: %+v", i, m)
		}
	}
}

// TestStreamSourceError checks a corrupt stream surfaces its decode
// error instead of returning silently short metrics.
func TestStreamSourceError(t *testing.T) {
	tr := kernelTrace(9, 5_000)
	dir := t.TempDir()
	p2 := filepath.Join(dir, "corrupt.bpt2")
	if err := trace.WriteFile2(p2, tr, 128); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x10 // land inside a block
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	configs := []core.Config{{Scheme: core.SchemeGShare, RowBits: 6, ColBits: 2}}
	if _, err := RunConfigsStream(context.Background(), configs, r, Options{}); err == nil {
		t.Fatal("corrupt stream produced metrics without an error")
	}
}

// encodeBPT1 and encodeBPT2 render a trace in either format in memory.
func encodeBPT1(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	w, err := trace.NewWriter(&b, tr.Name, tr.Instructions, uint64(tr.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range tr.Branches {
		if err := w.WriteBranch(br); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func encodeBPT2(t testing.TB, tr *trace.Trace, blockLen int) []byte {
	t.Helper()
	var b bytes.Buffer
	w, err := trace.NewWriter2(&b, tr.Name, tr.Instructions, uint64(tr.Len()), blockLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(tr.Branches); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// guardSource wraps a source and counts every call made after close:
// RunConfigsStream's callers close the backing file as soon as it
// returns, so any such call is a use after close.
type guardSource struct {
	src    trace.BatchSource
	closed atomic.Bool
	late   atomic.Int64
}

func (g *guardSource) check() {
	if g.closed.Load() {
		g.late.Add(1)
	}
}

func (g *guardSource) Next() (trace.Branch, bool) {
	g.check()
	return g.src.Next()
}

func (g *guardSource) NextBatch(buf []trace.Branch) []trace.Branch {
	g.check()
	return g.src.NextBatch(buf)
}

func (g *guardSource) Err() error {
	g.check()
	if es, ok := g.src.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// pipelineGoroutines counts the live goroutines running a
// trace.FanOut stage — the workers a streamed sweep starts.
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

// streamChecked runs RunConfigsStream over src through a guardSource,
// closes the guard the moment it returns, and fails the test if a
// worker goroutine outlived the call or the source was called after
// it.
func streamChecked(t testing.TB, ctx context.Context, configs []core.Config, src trace.BatchSource, opt Options) ([]Metrics, error) {
	t.Helper()
	g := &guardSource{src: src}
	got, err := RunConfigsStream(ctx, configs, g, opt)
	g.closed.Store(true)
	if !pipelineJoined() {
		t.Fatalf("%d pipeline goroutines outlived RunConfigsStream", pipelineGoroutines())
	}
	if n := g.late.Load(); n != 0 {
		t.Fatalf("source called %d times after RunConfigsStream returned", n)
	}
	return got, err
}

// cancelAfterBatches cancels a context once its source has handed out
// a given number of windows.
type cancelAfterBatches struct {
	trace.BatchSource
	left   int
	cancel context.CancelFunc
}

func (c *cancelAfterBatches) NextBatch(buf []trace.Branch) []trace.Branch {
	if c.left--; c.left == 0 {
		c.cancel()
	}
	return c.BatchSource.NextBatch(buf)
}

// TestStreamLifecycle pins the pipeline's lifetime: whether the stream
// ends normally, is canceled mid-way, or hits a corrupt block, no
// worker goroutine is alive once RunConfigsStream returns and the
// source is never called again. Workers are forced past one so the
// stage goroutines exist even on a one-CPU host.
func TestStreamLifecycle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tr := kernelTrace(17, 40_000)
	good := encodeBPT2(t, tr, 512)
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)/2] ^= 0x10 // lands inside a block
	configs := configAxes()["mixed"]
	open := func(raw []byte) trace.Reader {
		r, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	want, err := RunConfigsCtx(context.Background(), configs, tr, Options{Warmup: 100})
	if err != nil {
		t.Fatal(err)
	}
	got, err := streamChecked(t, context.Background(), configs, open(good), Options{Warmup: 100, Chunk: 4096})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("normal end: err %v, metrics match %v", err, reflect.DeepEqual(got, want))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfterBatches{BatchSource: open(good), left: 5, cancel: cancel}
	if _, err := streamChecked(t, ctx, configs, src, Options{Chunk: 4096}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel: err = %v, want context.Canceled", err)
	}

	if _, err := streamChecked(t, context.Background(), configs, open(corrupt), Options{Chunk: 4096}); err == nil {
		t.Fatal("corrupt block: no error")
	}
}

// FuzzStreamEquivalence fuzzes the window-ownership rule of the
// decode-ahead pipeline: over a random trace length, BPT2 block
// length, chunk (including chunks shorter than a block, where the
// reader hands out windows of its own block), warmup and config mix,
// RunConfigsStream over a BPT2 stream, a BPT1 stream and the in-memory
// trace's own windows equals RunConfigsCtx, and leaves no goroutine or
// late source call behind.
func FuzzStreamEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(20_000), uint16(1024), uint16(0), uint16(1000), uint8(0))
	f.Add(uint64(2), uint16(5_000), uint16(1000), uint16(700), uint16(3), uint8(7))
	f.Add(uint64(3), uint16(9_000), uint16(4096), uint16(1500), uint16(0), uint8(42))
	f.Add(uint64(4), uint16(100), uint16(1), uint16(1), uint16(200), uint8(9))
	var flat []core.Config
	axes := configAxes()
	names := make([]string, 0, len(axes))
	for name := range axes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		flat = append(flat, axes[name]...)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n, blockLen, chunk, warmup uint16, mix uint8) {
		tr := kernelTrace(seed, int(n)%30_000+1)
		r := rng.NewXoshiro256(uint64(mix))
		configs := make([]core.Config, 1+r.Intn(6))
		for i := range configs {
			configs[i] = flat[r.Intn(len(flat))]
		}
		opt := Options{Warmup: int(warmup), Chunk: int(chunk) % 10_000}
		want, err := RunConfigsCtx(context.Background(), configs, tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		bl := int(blockLen)%4096 + 1
		sources := map[string]func() trace.BatchSource{
			"bpt2": func() trace.BatchSource {
				rd, err := trace.NewReader(bytes.NewReader(encodeBPT2(t, tr, bl)))
				if err != nil {
					t.Fatal(err)
				}
				return rd
			},
			"bpt1": func() trace.BatchSource {
				rd, err := trace.NewReader(bytes.NewReader(encodeBPT1(t, tr)))
				if err != nil {
					t.Fatal(err)
				}
				return rd
			},
			"memory": func() trace.BatchSource { return tr.NewSource().(trace.BatchSource) },
		}
		for name, open := range sources {
			got, err := streamChecked(t, context.Background(), configs, open(), opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (block %d, chunk %d, warmup %d, %d configs): streamed metrics diverge from in-memory",
					name, bl, opt.Chunk, opt.Warmup, len(configs))
			}
		}
	})
}
