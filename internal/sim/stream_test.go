package sim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bpred/internal/core"
	"bpred/internal/trace"
)

// TestStreamEquivalence is the correctness contract of the streaming
// executor: driving a sweep from a BPT2 file (one block resident at a
// time) or a BPT1 byte stream yields metrics bit-identical to the
// in-memory path, across warmup and chunk geometry, for every axis
// shape including metered and unfusable configs.
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
