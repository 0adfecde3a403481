package core

import (
	"fmt"

	"bpred/internal/trace"
)

// TAGE is a tagged-geometric-history predictor (Seznec & Michaud,
// "A case for (partially) TAgged GEometric history length branch
// prediction"), scaled down to this engine's deterministic,
// allocation-free discipline:
//
//   - A bimodal base table of 2^colBits two-bit counters.
//   - tables partially-tagged tables of 2^rowBits entries, table i
//     indexed by a hash of the PC and the most recent
//     L_i = min(MaxHist, MinHist<<i) global history bits. Each entry
//     holds a TagBits partial tag, a three-bit signed-ish counter
//     (taken when >= 4), a two-bit useful counter, and a valid bit.
//   - The *provider* is the matching table with the longest history;
//     the *alternate* prediction comes from the next-longest match
//     (or the base table). On a mispredict, a new entry is allocated
//     in a longer-history table whose victim has useful == 0.
//
// Aliasing in a tagged table is not silent counter sharing but tag
// conflict: a branch can only disturb another's entry by evicting it
// at allocation. The meter therefore tracks, beyond the paper's
// taxonomy applied to provider entries, the tag-hit agree/disagree
// split, live-victim evictions, and provider-vs-altpred overrides.
//
// The whole per-branch step lives in Access so the batched kernel and
// the generic Predict/Update path execute literally the same code.
type TAGE struct {
	name    string
	rowBits int
	colBits int
	params  TAGEParams

	base []uint8 // two-bit counters, weakly taken at reset
	// Tagged-table state, flat: table i entry e at i<<rowBits|e.
	tags []uint64 // partial tag | tagValid; 0 is an empty slot
	ctrs []uint8  // three-bit counters
	us   []uint8  // two-bit useful counters

	hists   [16]tageHist
	idxMask uint64
	colMask uint64
	tagMask uint64
	ghr     uint64
	// ageLeft counts branches down to the next useful-counter
	// halving; it stays 0 when aging is off.
	ageLeft int

	meter *AliasMeter

	// Per-branch stash, filled by Predict and consumed by Update.
	pFlat    [16]uint64
	pTag     [16]uint64
	pCol     uint64
	provider int
	alt      int
	// Directions are 0 or 1 (1 = taken) so training can mask with them.
	providerPred uint8
	altPred      uint8
	pWeak        uint8 // 1 when the provider is weak and not yet useful
	pred         uint8

	// useAlt is the adaptive use-alt-on-newly-allocated confidence, a
	// 4-bit counter: >= 8 prefers the alternate prediction when the
	// provider entry is weak and not yet useful.
	useAlt uint8
}

// tagValid marks a live tagged entry. Stored tags are tag|tagValid,
// so an empty slot (0) never matches and the match test is one load
// and one compare.
const tagValid = 1 << 63

// tageHist is one tagged table's view of the global history: the
// L_i-bit window h_i = ghr & mask and its XOR folds.
type tageHist struct {
	mask uint64 // (1<<L_i)-1
	top  uint64 // 1<<(L_i-1): the ghr bit that leaves the window on a shift
	// folds holds fold(h_i, width) at widths RowBits (the index),
	// TagBits and TagBits-1 (the tag).
	folds [3]tageFold
}

// tageFold is a width-bit XOR fold of a table's history window, kept
// as a circular shift register (DESIGN.md §15) so a step costs the
// same for every history length.
type tageFold struct {
	v    uint64
	mask uint64 // (1<<width)-1
	out  uint64 // 1<<(L_i mod width); 0 for the empty fold
	wrap uint   // width-1 (mod 64): brings the top bit round to bit 0
}

// shift moves one outcome into the fold: rotate left within the
// width, cancel the bit leaving the window (the rotate brought it to
// L_i mod width), and add the outcome at bit 0. in is the outcome (0
// or 1); out is all ones when the leaving bit is set.
func (f *tageFold) shift(in, out uint64) {
	f.v = (f.v<<1 | f.v>>(f.wrap&63) ^ out&f.out ^ in) & f.mask
}

// NewTAGE builds a TAGE predictor with 2^rowBits entries per tagged
// table and a 2^colBits bimodal base. params is normalized (zero
// fields take their defaults).
func NewTAGE(rowBits, colBits int, params TAGEParams, metered bool) *TAGE {
	p := params.Normalized()
	checkBits("tage row", rowBits, 30)
	checkBits("tage col", colBits, 30)
	n := p.Tables << rowBits
	t := &TAGE{
		name: fmt.Sprintf("tage-%dx2^%d-t%d-h%d:%d+2^%d",
			p.Tables, rowBits, p.TagBits, p.MinHist, p.MaxHist, colBits),
		rowBits: rowBits,
		colBits: colBits,
		params:  p,
		base:    make([]uint8, 1<<colBits),
		tags:    make([]uint64, n),
		ctrs:    make([]uint8, n),
		us:      make([]uint8, n),
		idxMask: uint64(1)<<rowBits - 1,
		colMask: uint64(1)<<colBits - 1,
		tagMask: uint64(1)<<p.TagBits - 1,
		ageLeft: max(p.UPeriod, 0),
	}
	for i := range t.base {
		t.base[i] = 2
	}
	t.useAlt = 8 // start trusting the alternate for weak providers
	for i := 0; i < p.Tables; i++ {
		l := p.MinHist << i
		if l > p.MaxHist || l <= 0 {
			l = p.MaxHist
		}
		l = min(l, 64) // the history register's width
		h := &t.hists[i]
		h.mask = ^uint64(0) >> (64 - l)
		h.top = 1 << (l - 1)
		for k, w := range [3]int{rowBits, p.TagBits, p.TagBits - 1} {
			h.folds[k] = tageFold{mask: uint64(1)<<w - 1, wrap: uint(w-1) & 63}
			if w > 0 {
				h.folds[k].out = 1 << (l % w)
			}
		}
	}
	if metered {
		// One meter cell per tagged entry plus the base table, so
		// provider-entry conflicts and base-table conflicts share the
		// paper's taxonomy.
		t.meter = NewAliasMeter(n + 1<<colBits)
	}
	return t
}

// Predict computes the tagged-table matches and the provider/altpred
// chain for the branch. It must not examine b.Taken.
func (t *TAGE) Predict(b trace.Branch) bool {
	word := b.PC >> 2
	t.pCol = word & t.colMask
	provider, alt := -1, -1
	rb := uint(t.rowBits) & 63
	wIdx := word ^ word>>rb
	wTag := word ^ word>>(uint(t.params.TagBits)&63)
	for i := range t.hists[:t.params.Tables] {
		f := &t.hists[i].folds
		flat := uint64(i)<<rb | (wIdx^f[0].v^uint64(i))&t.idxMask
		// The tag folds the history at a second width (TagBits-1,
		// shifted) so it is never a function of the index — with one
		// shared fold width, tag would equal idx^i and every live
		// entry would match.
		tag := (wTag ^ f[1].v ^ f[2].v<<1) & t.tagMask
		t.pFlat[i] = flat
		t.pTag[i] = tag
		if t.tags[flat] == tag|tagValid {
			alt, provider = provider, i
		}
	}
	t.provider, t.alt = provider, alt
	// Counters predict with their high bit: bit 1 of a two-bit base
	// counter, bit 2 of a three-bit tagged one.
	t.altPred = t.base[t.pCol] >> 1
	if alt >= 0 {
		t.altPred = t.ctrs[t.pFlat[alt]] >> 2
	}
	t.providerPred, t.pWeak, t.pred = 0, 0, t.altPred
	if provider >= 0 {
		flat := t.pFlat[provider]
		c := t.ctrs[flat]
		t.providerPred = c >> 2
		// A weak (3 or 4), not-yet-useful provider is likely a fresh
		// allocation; whether its direction beats the alternate is
		// learned in the useAlt counter (Seznec's USE_ALT_ON_NA).
		t.pWeak = b2u8(c-3 < 2) & b2u8(t.us[flat] == 0)
		useAlt := t.pWeak & (t.useAlt >> 3)
		t.pred = t.providerPred ^ (t.providerPred^t.altPred)&useAlt
	}
	return t.pred == 1
}

// Update trains the provider (or base), steers useful bits, allocates
// on mispredicts, ages useful counters, and shifts history. It must
// follow the Predict for the same branch.
func (t *TAGE) Update(b trace.Branch) {
	taken := b.Taken
	up := b2u8(taken)
	if t.meter != nil {
		if t.provider >= 0 {
			hm := t.hists[t.provider].mask
			t.meter.Record(int(t.pFlat[t.provider]), b.PC, taken, t.ghr&hm == hm)
		} else {
			t.meter.Record(t.params.Tables<<t.rowBits+int(t.pCol), b.PC, taken, false)
		}
		for i := 0; i < t.params.Tables; i++ {
			// Training has not touched the tags yet, so this is
			// Predict's match test.
			if t.tags[t.pFlat[i]] == t.pTag[i]|tagValid {
				hit := t.ctrs[t.pFlat[i]] >= 4
				t.meter.RecordTagHit(hit == taken)
			}
		}
		if t.provider >= 0 && t.providerPred != t.altPred {
			t.meter.RecordOverride(t.providerPred == up)
		}
	}
	// Counter steps are branch-free saturating steps, masked to a
	// no-op where a counter does not train. useAlt and the provider's
	// useful counter train only where provider and alternate disagree
	// (useAlt also only for a weak provider); useful counts toward a
	// right provider, useAlt toward the alternate when the provider was
	// wrong. Provider-or-base stays a branch: selecting by mask instead
	// puts the counter loads behind the tag compares, and measured
	// slower.
	right := b2u8(t.providerPred == up)
	differ := -(t.providerPred ^ t.altPred)
	t.useAlt += (satStep(t.useAlt, 1-right, 15) - t.useAlt) & differ & -t.pWeak
	if t.provider >= 0 {
		flat := t.pFlat[t.provider]
		u := t.us[flat]
		t.us[flat] = u + (satStep(u, right, 3)-u)&differ
		t.ctrs[flat] = satStep(t.ctrs[flat], up, 7)
	} else {
		t.base[t.pCol] = satStep(t.base[t.pCol], up, 3)
	}
	if t.pred != up {
		allocated := false
		for j := t.provider + 1; j < t.params.Tables; j++ {
			flat := t.pFlat[j]
			if t.us[flat] == 0 {
				if t.tags[flat] != 0 && t.meter != nil {
					t.meter.RecordVictim()
				}
				t.tags[flat] = t.pTag[j] | tagValid
				t.ctrs[flat] = 3 + up // weak, toward the outcome
				t.us[flat] = 0
				allocated = true
				break
			}
		}
		if !allocated {
			for j := t.provider + 1; j < t.params.Tables; j++ {
				flat := t.pFlat[j]
				if t.us[flat] > 0 {
					t.us[flat]--
				}
			}
		}
	}
	if t.ageLeft > 0 {
		t.ageLeft--
		if t.ageLeft == 0 {
			for i := range t.us {
				t.us[i] >>= 1
			}
			t.ageLeft = t.params.UPeriod
		}
	}
	in := b2taken(taken)
	for i := range t.hists[:t.params.Tables] {
		h := &t.hists[i]
		out := -b2taken(t.ghr&h.top != 0)
		h.folds[0].shift(in, out)
		h.folds[1].shift(in, out)
		h.folds[2].shift(in, out)
	}
	t.ghr = t.ghr<<1 | in
}

// Access is the fused per-branch step — predict, then train — and
// returns the prediction made before training. The batched kernel
// drives this method directly.
//
//bpred:kernel
func (t *TAGE) Access(b trace.Branch) bool {
	p := t.Predict(b)
	t.Update(b)
	return p
}

// Name identifies the configuration.
func (t *TAGE) Name() string { return t.name }

// Meter exposes the alias meter (nil when unmetered).
func (t *TAGE) Meter() *AliasMeter { return t.meter }

// AliasStats reports tag-conflict and provider aliasing (zero when
// unmetered).
func (t *TAGE) AliasStats() AliasStats {
	if t.meter == nil {
		return AliasStats{}
	}
	return t.meter.Stats()
}

// b2taken converts a direction to a history bit.
func b2taken(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

var (
	_ Predictor     = (*TAGE)(nil)
	_ AliasReporter = (*TAGE)(nil)
)
