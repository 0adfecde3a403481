package core

import (
	"fmt"

	"bpred/internal/trace"
)

// Perceptron is the Jimenez & Lin perceptron predictor ("Dynamic
// branch prediction with perceptrons"): a table of 2^colBits signed
// weight vectors, one selected by low PC bits, dotted with the last
// histLen global history outcomes (+1 taken, -1 not taken) plus a
// bias weight. The branch is predicted taken when the output is
// non-negative; training bumps each weight toward agreement whenever
// the prediction was wrong or the output magnitude was within the
// threshold.
//
// Aliasing is the classic kind — two branches sharing one weight
// vector — so the standard taxonomy applies, metered at the
// perceptron-table granularity.
type Perceptron struct {
	name      string
	histLen   int
	colBits   int
	params    PerceptronParams
	wmin      int32
	wmax      int32
	threshold int64

	// weights holds 2^colBits vectors of histLen+1 weights each,
	// bias first.
	weights  []int32
	histMask uint64
	colMask  uint64
	ghr      uint64

	meter *AliasMeter

	// Per-branch stash, filled by Predict and consumed by Update.
	pBase int
	pSum  int64
	pred  bool
}

// NewPerceptron builds a perceptron predictor with histLen history
// bits and 2^colBits weight vectors. params is normalized (zero
// fields take their defaults).
func NewPerceptron(histLen, colBits int, params PerceptronParams, metered bool) *Perceptron {
	p := params.Normalized(histLen)
	checkBits("perceptron hist", histLen, 63)
	checkBits("perceptron col", colBits, 30)
	t := &Perceptron{
		name: fmt.Sprintf("perceptron-2^%dxh%d-w%d-t%d",
			colBits, histLen, p.WeightBits, p.Threshold),
		histLen:   histLen,
		colBits:   colBits,
		params:    p,
		wmin:      -(int32(1) << (p.WeightBits - 1)),
		wmax:      int32(1)<<(p.WeightBits-1) - 1,
		threshold: int64(p.Threshold),
		weights:   make([]int32, (1<<colBits)*(histLen+1)),
		histMask:  uint64(1)<<histLen - 1,
		colMask:   uint64(1)<<colBits - 1,
	}
	if metered {
		t.meter = NewAliasMeter(1 << colBits)
	}
	return t
}

// Predict computes the perceptron output for the branch. It must not
// examine b.Taken.
func (t *Perceptron) Predict(b trace.Branch) bool {
	idx := (b.PC >> 2) & t.colMask
	base := int(idx) * (t.histLen + 1)
	y := int64(t.weights[base])
	h := t.ghr
	// A sign multiplier (+1 taken, -1 not taken) keeps the dot
	// product free of a data-dependent branch per history bit.
	for _, w := range t.weights[base+1 : base+1+t.histLen] {
		y += (int64(h&1)<<1 - 1) * int64(w)
		h >>= 1
	}
	t.pBase = base
	t.pSum = y
	t.pred = y >= 0
	return t.pred
}

// Update trains the selected weight vector and shifts history. It
// must follow the Predict for the same branch.
func (t *Perceptron) Update(b trace.Branch) {
	taken := b.Taken
	if t.meter != nil {
		idx := t.pBase / (t.histLen + 1)
		t.meter.Record(idx, b.PC, taken, t.ghr&t.histMask == t.histMask)
	}
	mag := t.pSum
	if mag < 0 {
		mag = -mag
	}
	if t.pred != taken || mag <= t.threshold {
		// Each weight steps toward agreement between its input and the
		// outcome, and the clamp saturates it. Weights never leave
		// [wmin, wmax], so clamping w±1 is exactly the saturating step,
		// without a branch per input.
		tk := b2taken(taken)
		x := t.ghr<<1 | 1 // the inputs, bias first: a constant taken input
		ws := t.weights[t.pBase : t.pBase+1+t.histLen]
		for k, w := range ws {
			d := 1 - 2*int32((x^tk)&1) // +1 on agreement, -1 otherwise
			ws[k] = min(max(w+d, t.wmin), t.wmax)
			x >>= 1
		}
	}
	t.ghr = (t.ghr<<1 | b2taken(taken)) & t.histMask
}

// Access is the fused per-branch step — predict, then train — and
// returns the prediction made before training. The batched kernel
// drives this method directly.
//
//bpred:kernel
func (t *Perceptron) Access(b trace.Branch) bool {
	p := t.Predict(b)
	t.Update(b)
	return p
}

// Name identifies the configuration.
func (t *Perceptron) Name() string { return t.name }

// Meter exposes the alias meter (nil when unmetered).
func (t *Perceptron) Meter() *AliasMeter { return t.meter }

// AliasStats reports weight-vector aliasing (zero when unmetered).
func (t *Perceptron) AliasStats() AliasStats {
	if t.meter == nil {
		return AliasStats{}
	}
	return t.meter.Stats()
}

var (
	_ Predictor     = (*Perceptron)(nil)
	_ AliasReporter = (*Perceptron)(nil)
)
