package trace

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// countingTrace is a trace whose record i has PC i, so a stage can
// check it sees every record once, in order.
func countingTrace(n int) *Trace {
	tr := &Trace{Name: "count"}
	for i := 0; i < n; i++ {
		tr.Append(Branch{PC: uint64(i)})
	}
	return tr
}

// TestFanOutOrderAndOwnership runs three stages over an in-memory
// source, whose windows are its own: each stage must see every record
// once, in stream order, from inside the slots (nextInto copied them),
// never from the trace itself.
func TestFanOutOrderAndOwnership(t *testing.T) {
	tr := countingTrace(10_007)
	buf := make([]Branch, 96)
	slots := Cut(buf, 3)
	for i, s := range slots {
		if len(s) != 32 || cap(s) != 32 {
			t.Fatalf("slot %d: len %d cap %d, want 32/32", i, len(s), cap(s))
		}
	}
	inBuf := func(w []Branch) bool {
		return &w[0] == &buf[0] || &w[0] == &buf[32] || &w[0] == &buf[64]
	}
	next := make([]uint64, 3)
	stage := func(i int) func([]Branch) error {
		return func(w []Branch) error {
			if !inBuf(w) {
				return errors.New("window outside the slots")
			}
			for _, b := range w {
				if b.PC != next[i] {
					return errors.New("record out of order")
				}
				next[i]++
			}
			return nil
		}
	}
	err := FanOut(context.Background(), tr.NewSource().(BatchSource), slots, stage(0), stage(1), stage(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range next {
		if n != uint64(tr.Len()) {
			t.Fatalf("stage %d saw %d records, want %d", i, n, tr.Len())
		}
	}
	// No stages: the source is still drained, without a deadlock.
	src := tr.NewSource().(BatchSource)
	if err := FanOut(context.Background(), src, slots); err != nil {
		t.Fatal(err)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("FanOut without stages left records unread")
	}
}

// TestFanOutStopsOnErrorAndCancel checks that a stage error or a
// cancellation stops the decode early and that FanOut reports the
// stage error first, then ctx.Err().
func TestFanOutStopsOnErrorAndCancel(t *testing.T) {
	tr := countingTrace(100_000)
	slots := Cut(make([]Branch, 300), 3)
	boom := errors.New("boom")
	var calls atomic.Int64
	failAt := func(k int64) func([]Branch) error {
		return func([]Branch) error {
			if calls.Add(1) == k {
				return boom
			}
			return nil
		}
	}
	src := tr.NewSource().(BatchSource)
	if err := FanOut(context.Background(), src, slots, failAt(5), func([]Branch) error { return nil }); !errors.Is(err, boom) {
		t.Fatalf("stage error: err = %v, want boom", err)
	}
	if n := calls.Load(); n > 5+int64(len(slots)) {
		t.Fatalf("failing stage ran %d times after failing at call 5", n)
	}
	if _, ok := src.Next(); !ok {
		t.Fatal("decode ran to the end despite the stage error")
	}

	ctx, cancel := context.WithCancel(context.Background())
	calls.Store(0)
	stage := func([]Branch) error {
		if calls.Add(1) == 3 {
			cancel()
		}
		return nil
	}
	if err := FanOut(ctx, tr.NewSource().(BatchSource), slots, stage); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel: err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n > 3+int64(len(slots)) {
		t.Fatalf("stage ran %d times after the cancel at call 3", n)
	}
}
