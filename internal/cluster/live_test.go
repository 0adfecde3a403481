//go:build unix

package cluster

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/sweep"
	"bpred/internal/trace"
)

// fifoStreams is a StreamProvider whose every trace streams from one
// named pipe, so a test decides how far into the trace the worker may
// read.
type fifoStreams struct{ path string }

func (f fifoStreams) Trace(ctx context.Context, digest string) (*trace.Trace, error) {
	return nil, errors.New("fifoStreams: traces only stream")
}

func (f fifoStreams) OpenStream(digest string) (*trace.FileReader, error) {
	return trace.OpenFile(f.path)
}

// TestInProcessWorkerCountsProgressLive holds an in-process worker
// halfway through its only chunk — the trace streams through a pipe
// the test feeds — and requires the caller's Branches to move before
// the chunk ends. After it ends, the caller and the coordinator each
// hold the chunk's progress exactly once.
func TestInProcessWorkerCountsProgressLive(t *testing.T) {
	const n = 128 * 1024
	tr := testTrace(t, n, 11)
	dir := t.TempDir()
	file := filepath.Join(dir, "trace.bpt2")
	if err := trace.WriteFile2(file, tr, 0); err != nil {
		t.Fatalf("WriteFile2: %v", err)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	pipe := filepath.Join(dir, "trace.fifo")
	if err := syscall.Mkfifo(pipe, 0o600); err != nil {
		t.Fatalf("Mkfifo: %v", err)
	}

	coord := NewCoordinator(Config{})
	defer coord.Stop()
	ctx := runCtx(t)
	wctx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	w := NewWorker("local", coord, fifoStreams{pipe})
	go func() { _ = w.Run(wctx) }()

	configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, Tiers: []int{6}})
	var caller obs.Counters
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunCells(ctx, tr.Digest(), 0, configs, &caller)
		done <- err
	}()

	// A non-blocking open of the write end fails until the worker has
	// opened the read end.
	var feed *os.File
	waitUntil(t, 30*time.Second, "the worker to open the trace", func() bool {
		feed, err = os.OpenFile(pipe, os.O_WRONLY|syscall.O_NONBLOCK, 0)
		return err == nil
	})
	defer feed.Close()
	if _, err := feed.Write(raw[:len(raw)/2]); err != nil {
		t.Fatalf("feeding the first half: %v", err)
	}
	waitUntil(t, 30*time.Second, "live branch progress", func() bool {
		return caller.Snapshot().Branches > 0
	})
	select {
	case err := <-done:
		t.Fatalf("RunCells returned (%v) before the trace was fed", err)
	default:
	}
	if _, err := feed.Write(raw[len(raw)/2:]); err != nil {
		t.Fatalf("feeding the second half: %v", err)
	}
	if err := feed.Close(); err != nil {
		t.Fatalf("closing the pipe: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	want := uint64(len(configs)) * n
	for name, cnt := range map[string]*obs.Counters{"caller": &caller, "coordinator": coord.Counters()} {
		if got := cnt.Snapshot().Branches; got != want {
			t.Fatalf("%s Branches = %d, want %d (configs x trace length, counted once)", name, got, want)
		}
	}
}

// TestWorkerPullLoopsRunInParallel runs one worker with two pull
// loops under one fleet identity. Two concurrent RunCells calls, one
// chunk each, must execute at the same time: each chunk waits inside
// the worker until the other has started.
func TestWorkerPullLoopsRunInParallel(t *testing.T) {
	tr := testTrace(t, 4096, 12)
	coord := NewCoordinator(Config{})
	defer coord.Stop()
	ctx := runCtx(t)
	wctx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	w := NewWorker("local", coord, tracesFor(tr))
	var entered atomic.Int32
	bothIn := make(chan struct{})
	var serial atomic.Bool
	w.hookChunk = func(ctx context.Context, ch *Chunk) {
		if entered.Add(1) == 2 {
			close(bothIn)
		}
		select {
		case <-bothIn:
		case <-time.After(10 * time.Second):
			serial.Store(true)
		}
	}
	for i := 0; i < 2; i++ {
		go func() { _ = w.Run(wctx) }()
	}

	done := make(chan error, 2)
	for _, tier := range []int{5, 6} {
		configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, Tiers: []int{tier}})
		go func() {
			_, err := coord.RunCells(ctx, tr.Digest(), 0, configs, nil)
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("RunCells: %v", err)
		}
	}
	if serial.Load() {
		t.Fatalf("the two chunks ran one at a time")
	}
	if got := coord.Stats().ChunksDispatched; got != 2 {
		t.Fatalf("ChunksDispatched = %d, want 2", got)
	}
}
