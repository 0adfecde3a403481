package sim

import (
	"bpred/internal/core"
	"bpred/internal/trace"
)

// Modern-scheme kernels (DESIGN.md §15). Each family keeps its whole
// per-branch step in its concrete Access method (predict, then
// train), so the kernel and the generic Predict/Update path execute
// literally the same code. The kernels differ only in the concrete
// receiver type: every call in the loop is a static dispatch the
// compiler can see through, where genericKernel pays two interface
// calls per branch.

// tageKernel is the SchemeTAGE fast path.
//
//bpred:kernel
func tageKernel(t *core.TAGE) kernelFunc {
	return func(chunk []trace.Branch) uint64 {
		var miss uint64
		for i := range chunk {
			b := chunk[i]
			miss += b2u64(t.Access(b) != b.Taken)
		}
		return miss
	}
}

// perceptronKernel is the SchemePerceptron fast path.
//
//bpred:kernel
func perceptronKernel(t *core.Perceptron) kernelFunc {
	return func(chunk []trace.Branch) uint64 {
		var miss uint64
		for i := range chunk {
			b := chunk[i]
			miss += b2u64(t.Access(b) != b.Taken)
		}
		return miss
	}
}

// mcfarlingKernel is the SchemeTournament fast path.
//
//bpred:kernel
func mcfarlingKernel(t *core.McFarling) kernelFunc {
	return func(chunk []trace.Branch) uint64 {
		var miss uint64
		for i := range chunk {
			b := chunk[i]
			miss += b2u64(t.Access(b) != b.Taken)
		}
		return miss
	}
}
