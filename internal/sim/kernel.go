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
// the hot loop out of the per-branch path. Inside the loops only
// direct arithmetic on hoisted locals remains (plus the concrete,
// inlinable BHT accessors for per-address schemes); the counter step
// is the branchless form of counter.Table.Update and the history step
// the branchless form of history.ShiftRegister.Shift.

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
		return globalKernel(tab, meter, sel.Reg())
	case *core.GShareSelector:
		return gshareKernel(tab, meter, sel.Reg(), sel.ColBits())
	case *core.PathSelector:
		return pathKernel(tab, meter, sel.Reg())
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

// The scheme kernels below hoist every loop-invariant load into
// locals before entering the branch loop: the raw counter array and
// its saturation parameters (counter.Table.Raw), the index masks, and
// — crucially — the history register *value*, which lives in a
// machine register for the whole chunk and is written back through
// Set at the end. Go's alias analysis must otherwise assume the
// per-branch counter store could overwrite *Table / *ShiftRegister
// fields and reload them every iteration. The saturating counter step
// is the branchless form of Table.Update, verified bit-identical by
// the counter package tests and by kernel_test.go.

// The unmetered kernels additionally specialize the paper's default
// 2-bit counters: the ctrStep table folds the saturating transition
// and the mispredict bit into one L1-resident lookup, replacing the
// compare-and-mask saturate plus the threshold compare. For 2-bit
// state the threshold test (s >= 2) is exactly the counter MSB, so
// ctrStep's mispredict bit equals (s >= thresh) != taken. Wider
// counters and metered runs keep the general branchless form.
//
// ctrStep[s<<1|u] == next(s,u) | ((s>>1)^u)<<8. The table is sized
// 256 and indexed by a uint8 expression so the compiler elides the
// bounds check without a masking AND; entries past 7 are never
// reached (counter states are 0..3).
var ctrStep = [256]uint16{
	0b00<<1 | 0: 0 | 0<<8, 0b00<<1 | 1: 1 | 1<<8,
	0b01<<1 | 0: 0 | 0<<8, 0b01<<1 | 1: 2 | 1<<8,
	0b10<<1 | 0: 1 | 1<<8, 0b10<<1 | 1: 3 | 0<<8,
	0b11<<1 | 0: 2 | 1<<8, 0b11<<1 | 1: 3 | 0<<8,
}

// zeroKernel is the address-indexed (bimodal) fast path: row 0, so
// only the column index varies.
//
// The noinline directive is load-bearing: zeroKernel is cheap enough
// for the inliner to copy into kernelFor, and the compiler does not
// re-inline calls inside a closure that was duplicated by inlining —
// the b2u8/b2u64 helpers would become real CALLs on every branch
// (observed: ~2x slowdown). Keeping the constructor out of line keeps
// the closure body fully flattened. The other kernel constructors are
// already over the inlining budget; this one is only borderline.
//
//bpred:kernel
//go:noinline
func zeroKernel(tab *counter.Table, meter *core.AliasMeter) kernelFunc {
	state, max, thresh := tab.Raw()
	colMask := tab.ColMask()
	if meter == nil && max == 3 && thresh == 2 {
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			for i := range chunk {
				b := chunk[i]
				idx := int((b.PC >> 2) & colMask)
				t := ctrStep[state[idx]<<1|b2u8(b.Taken)]
				state[idx] = uint8(t)
				miss += uint64(t >> 8)
			}
			return miss
		}
	}
	if meter != nil {
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			for i := range chunk {
				b := chunk[i]
				idx := int((b.PC >> 2) & colMask)
				s := state[idx]
				meter.Record(idx, b.PC, b.Taken, false)
				up := b2u8(b.Taken)
				state[idx] = s + up&b2u8(s < max) - (1-up)&b2u8(s > 0)
				miss += b2u64((s >= thresh) != b.Taken)
			}
			return miss
		}
	}
	return func(chunk []trace.Branch) uint64 {
		var miss uint64
		for i := range chunk {
			b := chunk[i]
			idx := int((b.PC >> 2) & colMask)
			s := state[idx]
			up := b2u8(b.Taken)
			state[idx] = s + up&b2u8(s < max) - (1-up)&b2u8(s > 0)
			miss += b2u64((s >= thresh) != b.Taken)
		}
		return miss
	}
}

// globalKernel is the GAg/GAs fast path: row = global history.
//
//bpred:kernel
func globalKernel(tab *counter.Table, meter *core.AliasMeter, reg *history.ShiftRegister) kernelFunc {
	state, max, thresh := tab.Raw()
	rowMask, colMask, colBits := tab.RowMask(), tab.ColMask(), uint(tab.ColBits())
	regMask := reg.Mask()
	if meter == nil && max == 3 && thresh == 2 {
		rm := rowMask << colBits
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			val := reg.Value()
			for i := range chunk {
				b := chunk[i]
				pc2 := b.PC >> 2
				idx := int((val<<colBits)&rm | pc2&colMask)
				up := b2u8(b.Taken)
				t := ctrStep[state[idx]<<1|up]
				state[idx] = uint8(t)
				val = (val<<1 | uint64(up)) & regMask
				miss += uint64(t >> 8)
			}
			reg.Set(val)
			return miss
		}
	}
	if meter != nil {
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			val := reg.Value()
			for i := range chunk {
				b := chunk[i]
				idx := int((val&rowMask)<<colBits | (b.PC>>2)&colMask)
				s := state[idx]
				meter.Record(idx, b.PC, b.Taken, val == regMask)
				up := b2u8(b.Taken)
				state[idx] = s + up&b2u8(s < max) - (1-up)&b2u8(s > 0)
				val = (val<<1 | uint64(up)) & regMask
				miss += b2u64((s >= thresh) != b.Taken)
			}
			reg.Set(val)
			return miss
		}
	}
	return func(chunk []trace.Branch) uint64 {
		var miss uint64
		val := reg.Value()
		for i := range chunk {
			b := chunk[i]
			idx := int((val&rowMask)<<colBits | (b.PC>>2)&colMask)
			s := state[idx]
			up := b2u8(b.Taken)
			state[idx] = s + up&b2u8(s < max) - (1-up)&b2u8(s > 0)
			val = (val<<1 | uint64(up)) & regMask
			miss += b2u64((s >= thresh) != b.Taken)
		}
		reg.Set(val)
		return miss
	}
}

// gshareKernel is McFarling's XOR fast path: row = history XOR the
// address bits above column selection.
//
//bpred:kernel
func gshareKernel(tab *counter.Table, meter *core.AliasMeter, reg *history.ShiftRegister, colBits int) kernelFunc {
	state, max, thresh := tab.Raw()
	rowMask, colMask, colShift := tab.RowMask(), tab.ColMask(), uint(tab.ColBits())
	shift := 2 + uint(colBits)
	regMask := reg.Mask()
	if meter == nil && max == 3 && thresh == 2 && uint(colBits) == colShift {
		// Selector and table agree on the column width (true by
		// construction in NewGShare), so the XOR's address shift folds
		// into the shifted row mask: (val<<c ^ pc2) & (rowMask<<c) is
		// ((val ^ pc2>>c) & rowMask) << c.
		rm := rowMask << colShift
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			val := reg.Value()
			for i := range chunk {
				b := chunk[i]
				pc2 := b.PC >> 2
				idx := int((val<<colShift^pc2)&rm | pc2&colMask)
				up := b2u8(b.Taken)
				t := ctrStep[state[idx]<<1|up]
				state[idx] = uint8(t)
				val = (val<<1 | uint64(up)) & regMask
				miss += uint64(t >> 8)
			}
			reg.Set(val)
			return miss
		}
	}
	if meter != nil {
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			val := reg.Value()
			for i := range chunk {
				b := chunk[i]
				row := (val ^ (b.PC >> shift)) & rowMask
				idx := int(row<<colShift | (b.PC>>2)&colMask)
				s := state[idx]
				meter.Record(idx, b.PC, b.Taken, val == regMask)
				up := b2u8(b.Taken)
				state[idx] = s + up&b2u8(s < max) - (1-up)&b2u8(s > 0)
				val = (val<<1 | uint64(up)) & regMask
				miss += b2u64((s >= thresh) != b.Taken)
			}
			reg.Set(val)
			return miss
		}
	}
	return func(chunk []trace.Branch) uint64 {
		var miss uint64
		val := reg.Value()
		for i := range chunk {
			b := chunk[i]
			row := (val ^ (b.PC >> shift)) & rowMask
			idx := int(row<<colShift | (b.PC>>2)&colMask)
			s := state[idx]
			up := b2u8(b.Taken)
			state[idx] = s + up&b2u8(s < max) - (1-up)&b2u8(s > 0)
			val = (val<<1 | uint64(up)) & regMask
			miss += b2u64((s >= thresh) != b.Taken)
		}
		reg.Set(val)
		return miss
	}
}

// pathKernel is Nair's path-history fast path: row = target-address
// bit history; AllOnes never applies to path patterns.
//
//bpred:kernel
func pathKernel(tab *counter.Table, meter *core.AliasMeter, reg *history.PathRegister) kernelFunc {
	state, max, thresh := tab.Raw()
	rowMask, colMask, colBits := tab.RowMask(), tab.ColMask(), uint(tab.ColBits())
	regMask := reg.Mask()
	bpt := uint(reg.BitsPerTarget())
	tgtMask := uint64(1)<<bpt - 1
	if meter == nil && max == 3 && thresh == 2 {
		rm := rowMask << colBits
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			val := reg.Value()
			for i := range chunk {
				b := chunk[i]
				pc2 := b.PC >> 2
				idx := int((val<<colBits)&rm | pc2&colMask)
				t := ctrStep[state[idx]<<1|b2u8(b.Taken)]
				state[idx] = uint8(t)
				next := b.PC + 4
				if b.Taken {
					next = b.Target
				}
				val = (val<<bpt | (next>>2)&tgtMask) & regMask
				miss += uint64(t >> 8)
			}
			reg.Set(val)
			return miss
		}
	}
	if meter != nil {
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			val := reg.Value()
			for i := range chunk {
				b := chunk[i]
				idx := int((val&rowMask)<<colBits | (b.PC>>2)&colMask)
				s := state[idx]
				meter.Record(idx, b.PC, b.Taken, false)
				up := b2u8(b.Taken)
				state[idx] = s + up&b2u8(s < max) - (1-up)&b2u8(s > 0)
				next := b.PC + 4
				if b.Taken {
					next = b.Target
				}
				val = (val<<bpt | (next>>2)&tgtMask) & regMask
				miss += b2u64((s >= thresh) != b.Taken)
			}
			reg.Set(val)
			return miss
		}
	}
	return func(chunk []trace.Branch) uint64 {
		var miss uint64
		val := reg.Value()
		for i := range chunk {
			b := chunk[i]
			idx := int((val&rowMask)<<colBits | (b.PC>>2)&colMask)
			s := state[idx]
			up := b2u8(b.Taken)
			state[idx] = s + up&b2u8(s < max) - (1-up)&b2u8(s > 0)
			next := b.PC + 4
			if b.Taken {
				next = b.Target
			}
			val = (val<<bpt | (next>>2)&tgtMask) & regMask
			miss += b2u64((s >= thresh) != b.Taken)
		}
		reg.Set(val)
		return miss
	}
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
	state, max, thresh := tab.Raw()
	rowMask, colMask, colBits := tab.RowMask(), tab.ColMask(), uint(tab.ColBits())
	bits := sel.BHT().Bits()
	allMask := uint64(0)
	if bits > 0 {
		allMask = 1<<uint(bits) - 1
	}
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
				idx := int((row&rowMask)<<colBits | (b.PC>>2)&colMask)
				s := state[idx]
				if meter != nil {
					meter.Record(idx, b.PC, b.Taken, row == allMask)
				}
				up := b2u8(b.Taken)
				state[idx] = s + up&b2u8(s < max) - (1-up)&b2u8(s > 0)
				miss += b2u64((s >= thresh) != b.Taken)
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
				idx := int((row&rowMask)<<colBits | (b.PC>>2)&colMask)
				s := state[idx]
				if meter != nil {
					meter.Record(idx, b.PC, b.Taken, row == allMask)
				}
				up := b2u8(b.Taken)
				state[idx] = s + up&b2u8(s < max) - (1-up)&b2u8(s > 0)
				miss += b2u64((s >= thresh) != b.Taken)
			}
			return miss
		}
	case *history.Untagged:
		return func(chunk []trace.Branch) uint64 {
			var miss uint64
			for i := range chunk {
				b := chunk[i]
				row, _ := bht.Access(b.PC, b.Taken)
				idx := int((row&rowMask)<<colBits | (b.PC>>2)&colMask)
				s := state[idx]
				if meter != nil {
					meter.Record(idx, b.PC, b.Taken, row == allMask)
				}
				up := b2u8(b.Taken)
				state[idx] = s + up&b2u8(s < max) - (1-up)&b2u8(s > 0)
				miss += b2u64((s >= thresh) != b.Taken)
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

// b2u64 converts a bool to 0/1; the compiler lowers it to a flag
// move, keeping the mispredict accumulation branchless.
func b2u64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// b2u8 is the counter-width variant of b2u64, used by the branchless
// saturating-counter step inlined into the kernels.
func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
