package core

import (
	"fmt"

	"bpred/internal/trace"
)

// McFarling is the concrete tournament predictor behind
// SchemeTournament: McFarling's "Combining Branch Predictors"
// arrangement of a gshare component (2^gBits counters indexed by
// history XOR PC), a bimodal component (2^bBits counters indexed by
// PC), and a chooser table (2^cBits counters indexed by PC) that
// arbitrates between them. All three tables hold two-bit counters
// initialized weakly taken; the chooser counts toward gshare when
// >= 2 and trains only on branches where the components disagree.
//
// (The generic Tournament combinator in combine.go composes arbitrary
// Predictors for experiments; this type is the monomorphic,
// kernel-friendly realization the sweep layers build.)
//
// Aliasing is metered on the gshare component — the history-indexed
// table where the paper's correlation-vs-aliasing tension lives.
type McFarling struct {
	name  string
	gBits int
	bBits int
	cBits int

	gshare  []uint8
	bimodal []uint8
	chooser []uint8
	gMask   uint64
	bMask   uint64
	cMask   uint64
	ghr     uint64

	meter *AliasMeter

	// Per-branch stash, filled by Predict and consumed by Update.
	pG   uint64
	pB   uint64
	pC   uint64
	gp   uint8 // the gshare component's direction, 1 = taken
	bp   uint8 // the bimodal component's direction
	pred bool
}

// NewMcFarling builds a tournament predictor with 2^gBits gshare
// counters, 2^bBits bimodal counters, and a 2^cBits chooser.
func NewMcFarling(gBits, bBits, cBits int, metered bool) *McFarling {
	checkBits("tournament gshare", gBits, 30)
	checkBits("tournament bimodal", bBits, 30)
	checkBits("tournament chooser", cBits, 30)
	t := &McFarling{
		name:    fmt.Sprintf("tournament-g2^%d-b2^%d-c2^%d", gBits, bBits, cBits),
		gBits:   gBits,
		bBits:   bBits,
		cBits:   cBits,
		gshare:  make([]uint8, 1<<gBits),
		bimodal: make([]uint8, 1<<bBits),
		chooser: make([]uint8, 1<<cBits),
		gMask:   uint64(1)<<gBits - 1,
		bMask:   uint64(1)<<bBits - 1,
		cMask:   uint64(1)<<cBits - 1,
	}
	for i := range t.gshare {
		t.gshare[i] = 2
	}
	for i := range t.bimodal {
		t.bimodal[i] = 2
	}
	for i := range t.chooser {
		t.chooser[i] = 2
	}
	if metered {
		t.meter = NewAliasMeter(1 << gBits)
	}
	return t
}

// Predict consults the chooser to select between the gshare and
// bimodal components. It must not examine b.Taken.
func (t *McFarling) Predict(b trace.Branch) bool {
	word := b.PC >> 2
	t.pG = (t.ghr ^ word) & t.gMask
	t.pB = word & t.bMask
	t.pC = word & t.cMask
	// A two-bit counter's high bit is its direction; the chooser's
	// selects gshare.
	t.gp = t.gshare[t.pG] >> 1
	t.bp = t.bimodal[t.pB] >> 1
	t.pred = t.bp^(t.gp^t.bp)&(t.chooser[t.pC]>>1) == 1
	return t.pred
}

// Update trains both components every branch, the chooser on
// disagreements, and shifts history. It must follow the Predict for
// the same branch.
func (t *McFarling) Update(b trace.Branch) {
	taken := b.Taken
	if t.meter != nil {
		t.meter.Record(int(t.pG), b.PC, taken, t.ghr == t.gMask)
	}
	up := b2u8(taken)
	t.gshare[t.pG] = satStep(t.gshare[t.pG], up, 3)
	t.bimodal[t.pB] = satStep(t.bimodal[t.pB], up, 3)
	// The chooser moves toward gshare when gshare was right; where
	// the components agree, the step is masked to a no-op.
	c := t.chooser[t.pC]
	t.chooser[t.pC] = c + (satStep(c, t.gp^up^1, 3)-c)&-(t.gp^t.bp)
	t.ghr = (t.ghr<<1 | b2taken(taken)) & t.gMask
}

// Access is the fused per-branch step — predict, then train — and
// returns the prediction made before training. The batched kernel
// drives this method directly.
//
//bpred:kernel
func (t *McFarling) Access(b trace.Branch) bool {
	p := t.Predict(b)
	t.Update(b)
	return p
}

// Name identifies the configuration.
func (t *McFarling) Name() string { return t.name }

// Meter exposes the alias meter (nil when unmetered).
func (t *McFarling) Meter() *AliasMeter { return t.meter }

// AliasStats reports gshare-component aliasing (zero when unmetered).
func (t *McFarling) AliasStats() AliasStats {
	if t.meter == nil {
		return AliasStats{}
	}
	return t.meter.Stats()
}

var (
	_ Predictor     = (*McFarling)(nil)
	_ AliasReporter = (*McFarling)(nil)
)
