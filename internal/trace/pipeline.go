package trace

import (
	"context"
	"sync"
	"sync/atomic"
)

// nextInto is NextBatch for a caller that keeps the window while it
// decodes the next one (a pipeline stage). A source may answer with a
// window it owns — an in-memory trace's slice, or one BPT2 block when
// buf is shorter than a block — and may overwrite that window on its
// next call; nextInto copies such a window into buf, so the result
// lives in buf and stays valid for as long as the caller owns buf.
func nextInto(src BatchSource, buf []Branch) []Branch {
	w := src.NextBatch(buf)
	if len(w) > 0 && &w[0] != &buf[0] {
		w = buf[:copy(buf, w)]
	}
	return w
}

// Cut splits buf into n slots for FanOut, each capped at its own end
// with a full slice expression so no slot's capacity reaches into its
// neighbour. len(buf) must be at least n: an empty slot would read as
// the end of the source.
func Cut(buf []Branch, n int) [][]Branch {
	slots := make([][]Branch, n)
	for i := range slots {
		lo, hi := i*len(buf)/n, (i+1)*len(buf)/n
		slots[i] = buf[lo:hi:hi]
	}
	return slots
}

// FanOut runs every stage over every window of src, in stream order,
// with each stage on its own goroutine and the decode on the caller's.
// The windows are decoded into slots, disjoint buffers the caller
// owns: a slot is refilled only after every stage has released the
// window in it, so while the stages work through the windows in some
// slots the caller decodes the next into a free one. Stages only read
// a window. The slots (see Cut) are the pipeline's whole footprint.
//
// ctx is checked at window boundaries. After a stage error or a
// cancellation no stage runs again and the decode stops; FanOut
// returns the first stage error in stage order, else ctx.Err(), else
// nil at the end of src (whose own error the caller checks). Every
// source call is made on the caller's goroutine and every stage
// goroutine is joined before FanOut returns, so nothing touches src,
// the slots or the stages' state afterwards.
func FanOut(ctx context.Context, src BatchSource, slots [][]Branch, stages ...func([]Branch) error) error {
	type window struct {
		buf, recs []Branch
		pending   atomic.Int32 // stages yet to release the window
	}
	// Every channel holds one entry per slot: no more windows than
	// slots are ever in flight, so no send below blocks, and a stage
	// releasing a window never waits on the decoder.
	free := make(chan *window, len(slots))
	for _, s := range slots {
		free <- &window{buf: s}
	}
	var stop atomic.Bool
	errs := make([]error, len(stages))
	feeds := make([]chan *window, len(stages))
	var joined sync.WaitGroup
	joined.Add(len(stages))
	for i, stage := range stages {
		feed := make(chan *window, len(slots))
		feeds[i] = feed
		go func() {
			defer joined.Done()
			for w := range feed {
				if !stop.Load() {
					if errs[i] = stage(w.recs); errs[i] != nil {
						stop.Store(true)
					}
				}
				if w.pending.Add(-1) == 0 {
					free <- w
				}
			}
		}()
	}
	err := func() error {
		defer func() {
			for _, feed := range feeds {
				close(feed)
			}
			joined.Wait()
		}()
		done := ctx.Done()
		for {
			w := <-free
			if stop.Load() {
				return nil
			}
			if done != nil {
				select {
				case <-done:
					stop.Store(true)
					return ctx.Err()
				default:
				}
			}
			w.recs = nextInto(src, w.buf)
			if len(w.recs) == 0 {
				return nil
			}
			if len(feeds) == 0 {
				free <- w
				continue
			}
			w.pending.Store(int32(len(feeds)))
			for _, feed := range feeds {
				feed <- w
			}
		}
	}()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return err
}
