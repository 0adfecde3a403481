package sim

import (
	"bpred/internal/core"
	"bpred/internal/counter"
	"bpred/internal/history"
	"bpred/internal/obs"
	"bpred/internal/trace"
)

// This file is the batched fast path: monomorphic per-scheme kernels
// that run a fused predict+train+meter loop over a chunk of branches
// with zero interface calls and zero per-branch allocations. The
// generic Run loop in sim.go stays as the reference implementation;
// kernels are required to be bit-identical to it on every scheme
// (enforced by kernel_test.go), and predictors without a kernel — any
// non-TwoLevel Predictor, or a TwoLevel over a custom RowSelector or
// custom first-level table — transparently use a generic chunk loop
// that preserves the exact interface-call semantics.
//
// The kernel for a scheme is selected once per run by a type switch
// on the concrete RowSelector (and, for per-address schemes, on the
// concrete BranchHistoryTable), hoisting every dynamic dispatch of
// the hot loop out of the per-branch path. A selector whose history
// width or column split disagrees with its table keeps the generic
// loop; the scheme constructors in core never build one. Inside the
// loops only direct arithmetic on hoisted locals remains (plus the
// concrete, inlinable BHT accessors for per-address schemes).

// defaultChunk is the number of branches per streamed chunk: 8192
// records x 24 bytes = 192 KiB, sized so a chunk stays L2-resident
// while a worker replays it for every predictor in its batch.
const defaultChunk = 8192

// chunkLen returns the effective chunk size for a run.
func chunkLen(opt Options) int {
	if opt.Chunk > 0 {
		return opt.Chunk
	}
	return defaultChunk
}

// kernelFunc processes one chunk: it predicts and trains the
// predictor over every branch and returns the number of
// mispredictions within the chunk. Scoring (warmup exclusion) is the
// caller's concern.
type kernelFunc func(chunk []trace.Branch) uint64

// kernelFor returns the monomorphic kernel for p, or the generic
// interface-driven chunk loop when no fast path applies.
func kernelFor(p core.Predictor) kernelFunc {
	switch m := p.(type) {
	case *core.TAGE:
		return tageKernel(m)
	case *core.Perceptron:
		return perceptronKernel(m)
	case *core.McFarling:
		return mcfarlingKernel(m)
	}
	t, ok := p.(*core.TwoLevel)
	if !ok {
		return genericKernel(p)
	}
	tab, meter := t.Table(), t.Meter()
	switch sel := t.Selector().(type) {
	case core.ZeroSelector:
		return zeroKernel(tab, meter)
	case *core.GlobalSelector:
		if sel.Reg().Bits() == tab.RowBits() {
			return globalKernel(tab, meter, sel.Reg(), tab.ColMask())
		}
	case *core.GShareSelector:
		if sel.Reg().Bits() == tab.RowBits() && sel.ColBits() == tab.ColBits() {
			return globalKernel(tab, meter, sel.Reg(), ^uint64(0))
		}
	case *core.PathSelector:
		if sel.Reg().Bits() == tab.RowBits() {
			return pathKernel(tab, meter, sel.Reg())
		}
	case *core.PerAddressSelector:
		if k := perAddressKernel(tab, meter, sel); k != nil {
			return k
		}
	}
	return genericKernel(p)
}

// genericKernel adapts any Predictor to the chunk interface with the
// reference loop's exact Predict-then-Update semantics.
func genericKernel(p core.Predictor) kernelFunc {
	return func(chunk []trace.Branch) uint64 {
		var miss uint64
		for i := range chunk {
			b := chunk[i]
			pred := p.Predict(b)
			p.Update(b)
			miss += b2u64(pred != b.Taken)
		}
		return miss
	}
}

// The scheme kernels below hoist every loop invariant into locals (Go's
// alias analysis would otherwise reload them across every counter
// store): the counter array and its width's Step table, the index
// masks, and the history register *value*, written back through Set.
// Every classic loop trains and scores a counter with one Step lookup
// (stepCounter). The unmetered loops are //go:noinline leaf functions
// that take their state as arguments and return (history, misses), so
// every loop-carried value stays in a register (DESIGN.md §5 gives the
// loop shape and how to check it); the metered loops call the meter on
// every branch and stay in closures.

// zeroKernel is the address-indexed (bimodal) fast path: row 0, so
// only the column index varies. The noinline directive is load-bearing:
// inlined into kernelFor, its metered closure would no longer inline
// b2u64 and would pay a CALL on every branch.
//
//bpred:kernel
//go:noinline
func zeroKernel(tab *counter.Table, meter *core.AliasMeter) kernelFunc {
	state, step := tab.Raw()
	colMask := tab.ColMask()
	if meter != nil {
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			for i := range chunk {
				b := chunk[i]
				idx := (b.PC >> 2) & colMask
				meter.Record(int(idx), b.PC, b.Taken, false)
				miss += stepCounter(state, step, idx, b.Taken)
			}
			return miss
		}
	}
	return func(chunk []trace.Branch) uint64 {
		return zeroLoop(chunk, state, step, colMask)
	}
}

// zeroLoop is zeroKernel's unmetered loop.
//
//bpred:kernel
//go:noinline
func zeroLoop(chunk []trace.Branch, state []uint8, step *counter.Step, colMask uint64) (miss uint64) {
	_, _ = state[colMask], step[0] // hoist the bounds and nil checks
	for i := range chunk {
		b := chunk[i]
		idx := (b.PC >> 2) & colMask
		miss += stepCounter(state, step, idx, b.Taken)
	}
	return miss
}

// globalKernel is the fast path of GAg, GAs and McFarling's gshare,
// all indexed (value<<colBits ^ pc>>2&pcMask) & tableMask: GAs passes
// the column mask, so only column bits reach the index below the
// history's zero low bits; gshare passes all ones, so the address bits
// above the columns XOR into the row. kernelFor picks it only when the
// register is as wide as the rows (and gshare skips exactly the
// table's column bits), so & tableMask also re-masks the history.
//
//bpred:kernel
func globalKernel(tab *counter.Table, meter *core.AliasMeter, reg *history.ShiftRegister, pcMask uint64) kernelFunc {
	state, step := tab.Raw()
	c, tableMask := uint(tab.ColBits()), uint64(tab.Size()-1)
	one, histMask := uint64(1)<<c, reg.Mask()<<c
	if meter != nil {
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			hv := reg.Value() << c
			for i := range chunk {
				b := chunk[i]
				idx := (hv ^ b.PC>>2&pcMask) & tableMask
				meter.Record(int(idx), b.PC, b.Taken, hv == histMask)
				miss += stepCounter(state, step, idx, b.Taken)
				hv = (hv<<1 | one&-b2u64(b.Taken)) & tableMask
			}
			reg.Set(hv >> c)
			return miss
		}
	}
	return func(chunk []trace.Branch) uint64 {
		hv, miss := globalLoop(chunk, state, step, reg.Value()<<c, one, pcMask, tableMask)
		reg.Set(hv >> c)
		return miss
	}
}

// globalLoop is globalKernel's unmetered loop over the pre-shifted
// history hv.
//
//bpred:kernel
//go:noinline
func globalLoop(chunk []trace.Branch, state []uint8, step *counter.Step, hv, one, pcMask, tableMask uint64) (uint64, uint64) {
	_, _ = state[tableMask], step[0] // hoist the bounds and nil checks
	var miss uint64
	for i := range chunk {
		b := chunk[i]
		idx := (hv ^ b.PC>>2&pcMask) & tableMask
		miss += stepCounter(state, step, idx, b.Taken)
		hv = (hv<<1 | one&-b2u64(b.Taken)) & tableMask
	}
	return hv, miss
}

// pathKernel is Nair's path-history fast path: row = target-address
// bit history; AllOnes never applies to path patterns. As in
// globalKernel, the register is as wide as the rows, so & tableMask
// re-masks the history.
//
//bpred:kernel
func pathKernel(tab *counter.Table, meter *core.AliasMeter, reg *history.PathRegister) kernelFunc {
	state, step := tab.Raw()
	c, colMask, tableMask := uint(tab.ColBits()), tab.ColMask(), uint64(tab.Size()-1)
	one := uint64(1) << c
	bpt := min(uint64(reg.BitsPerTarget()), 63) // a shift by 63 already clears the history
	tgtMask := uint64(1)<<bpt - 1
	if meter != nil {
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			hv := reg.Value() << c
			for i := range chunk {
				b := chunk[i]
				idx := (hv | (b.PC>>2)&colMask) & tableMask
				meter.Record(int(idx), b.PC, b.Taken, false)
				miss += stepCounter(state, step, idx, b.Taken)
				next := b.PC + 4 + (b.Target-b.PC-4)&-b2u64(b.Taken)
				hv = (hv<<bpt | (next>>2&tgtMask)<<c) & tableMask
			}
			reg.Set(hv >> c)
			return miss
		}
	}
	return func(chunk []trace.Branch) uint64 {
		hv, miss := pathLoop(chunk, state, step, reg.Value()<<c, one, tgtMask, tableMask, bpt)
		reg.Set(hv >> c)
		return miss
	}
}

// pathLoop is pathKernel's unmetered loop over the pre-shifted history
// hv. To spare registers it derives the column mask as one-1, places
// the target bits with a multiply, and selects the next address with a
// mask.
//
//bpred:kernel
//go:noinline
func pathLoop(chunk []trace.Branch, state []uint8, step *counter.Step, hv, one, tgtMask, tableMask, bpt uint64) (uint64, uint64) {
	_, _ = state[tableMask], step[0] // hoist the bounds and nil checks
	var miss uint64
	for i := range chunk {
		b := &chunk[i]
		idx := (hv | (b.PC>>2)&(one-1)) & tableMask
		up := b2u64(b.Taken)
		t := step[uint64(state[idx])<<1|up]
		state[idx] = uint8(t)
		miss += uint64(t >> 8)
		next := b.PC + 4 + (b.Target-b.PC-4)&-up
		hv = (hv<<(bpt&63) | (next>>2&tgtMask)*one) & tableMask
	}
	return hv, miss
}

// perAddressKernel is the PAg/PAs fast path. The first-level table is
// itself behind an interface, so the kernel devirtualizes one more
// level by switching on the concrete BranchHistoryTable; unknown
// implementations keep the reference loop. For every concrete table
// the all-ones test reduces to row == mask (a 0-bit register always
// reads 0 == 0, matching the selector's vacuous-truth convention).
//
//bpred:kernel
func perAddressKernel(tab *counter.Table, meter *core.AliasMeter, sel *core.PerAddressSelector) kernelFunc {
	state, step := tab.Raw()
	rowMask, colMask, colBits := tab.RowMask(), tab.ColMask(), uint(tab.ColBits())
	allMask := uint64(1)<<uint(sel.BHT().Bits()) - 1 // 0 for a 0-bit register
	switch bht := sel.BHT().(type) {
	case *history.Perfect:
		// Perfect.Access folds Lookup+Update into one table probe;
		// history and counter state are independent, so reordering the
		// history write before the counter write is bit-identical.
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			for i := range chunk {
				b := chunk[i]
				row := bht.Access(b.PC, b.Taken)
				idx := (row&rowMask)<<colBits | (b.PC>>2)&colMask
				if meter != nil {
					meter.Record(int(idx), b.PC, b.Taken, row == allMask)
				}
				miss += stepCounter(state, step, idx, b.Taken)
			}
			return miss
		}
	case *history.SetAssoc:
		// Access reuses Lookup's resolved way for the shift-in,
		// halving the tag-search work per branch; as with Perfect,
		// moving the history write ahead of the counter write is
		// bit-identical because the two states are independent.
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			for i := range chunk {
				b := chunk[i]
				row, _ := bht.Access(b.PC, b.Taken)
				idx := (row&rowMask)<<colBits | (b.PC>>2)&colMask
				if meter != nil {
					meter.Record(int(idx), b.PC, b.Taken, row == allMask)
				}
				miss += stepCounter(state, step, idx, b.Taken)
			}
			return miss
		}
	case *history.Untagged:
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			for i := range chunk {
				b := chunk[i]
				row, _ := bht.Access(b.PC, b.Taken)
				idx := (row&rowMask)<<colBits | (b.PC>>2)&colMask
				if meter != nil {
					meter.Record(int(idx), b.PC, b.Taken, row == allMask)
				}
				miss += stepCounter(state, step, idx, b.Taken)
			}
			return miss
		}
	}
	return nil
}

// runner drives one predictor's kernel over a stream of shared
// chunks, applying the warmup boundary exactly as the generic loop
// does: warm branches train (and meter) but are not scored.
type runner struct {
	p    core.Predictor
	k    kernelFunc
	warm int
	m    Metrics
	obs  *obs.Counters
}

func newRunner(p core.Predictor, opt Options) runner {
	return runner{p: p, k: kernelFor(p), warm: opt.Warmup, obs: opt.Obs}
}

// feed processes one chunk, splitting it at the warmup boundary when
// the boundary falls inside. The obs hook fires once per chunk — a
// nil check when instrumentation is off — keeping the kernels
// themselves untouched.
func (r *runner) feed(chunk []trace.Branch) {
	if r.obs != nil {
		r.obs.AddChunk(uint64(len(chunk)))
	}
	if r.warm > 0 {
		n := r.warm
		if n > len(chunk) {
			n = len(chunk)
		}
		r.k(chunk[:n])
		r.warm -= n
		chunk = chunk[n:]
		if len(chunk) == 0 {
			return
		}
	}
	r.m.Branches += uint64(len(chunk))
	r.m.Mispredicts += r.k(chunk)
}

// finish assembles the final Metrics, mirroring the reference loop's
// epilogue.
func (r *runner) finish() Metrics {
	m := r.m
	m.Name = r.p.Name()
	finishMetrics(&m, r.p)
	return m
}

// stepCounter trains counter idx through the Step table and returns 1
// when its prediction missed.
func stepCounter(state []uint8, step *counter.Step, idx uint64, taken bool) uint64 {
	t := step[uint64(state[idx])<<1|b2u64(taken)]
	state[idx] = uint8(t)
	return uint64(t >> 8)
}

// b2u64 converts a bool to 0/1; the compiler lowers it to a flag
// move, keeping the mispredict accumulation branchless.
func b2u64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
