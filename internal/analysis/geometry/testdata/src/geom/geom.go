// Package geom exercises the geometry analyzer's index rules: PC and
// history bits must be masked to a power-of-two table size before
// indexing.
package geom

import "history"

type branch struct {
	PC     uint64
	Target uint64
	Taken  bool
}

// Good masks a combined history-and-address index with len(t)-1.
func Good(t []uint8, reg *history.ShiftRegister, b branch) uint8 {
	idx := (reg.Value() ^ (b.PC >> 2)) & uint64(len(t)-1)
	return t[idx]
}

// GoodMod bounds the index with modulo instead of a mask.
func GoodMod(t []uint8, b branch) uint8 {
	return t[b.PC%uint64(len(t))]
}

// GoodConstMask uses a 2^k-1 literal mask.
func GoodConstMask(t []uint8, pc uint64) uint8 {
	return t[pc&0x3f]
}

// BadPC indexes with raw address bits.
func BadPC(t []uint8, b branch) uint8 {
	return t[b.PC>>2] // want `unmasked table index`
}

// BadHist indexes with a raw history pattern.
func BadHist(t []uint8, reg *history.ShiftRegister) uint8 {
	return t[reg.Value()] // want `unmasked table index`
}

// BadPropagated shows taint flowing through a local.
func BadPropagated(t []uint8, pc uint64) uint8 {
	idx := pc >> 2
	idx ^= idx >> 7
	return t[idx] // want `unmasked table index`
}

// BadTuple shows taint flowing out of a history Lookup.
func BadTuple(ht *history.Table, t []uint8, pc uint64) uint8 {
	h, _ := ht.Lookup(pc)
	return t[h] // want `unmasked table index`
}

// BadMask masks with a constant that is not 2^k-1, silently changing
// the table geometry.
func BadMask(t []uint8, pc uint64) uint8 {
	return t[pc&0xfe] // want `constant mask 254 over PC/history bits is not of the form 2\^k-1`
}

// GoodPacked derives a bit-packed counter lane from a masked index:
// word = idx>>5 and shift = (idx&31)<<1 inherit the masked index's
// cleanliness, so the packed-bank idiom needs no extra annotation.
func GoodPacked(words []uint64, reg *history.ShiftRegister, b branch) uint64 {
	idx := (reg.Value() ^ (b.PC >> 2)) & 0x3ff
	sh := (idx & 31) << 1
	return words[idx>>5] >> sh & 3
}

// BadPackedWord selects a packed word from an unmasked index: the
// lane shift narrows the value but does not bound it.
func BadPackedWord(words []uint64, reg *history.ShiftRegister) uint64 {
	idx := reg.Value()
	return words[idx>>5] // want `unmasked table index`
}

// BadVal indexes with a raw register-file pattern.
func BadVal(t []uint8, m *history.PCMap, slot int) uint8 {
	return t[m.Val(slot)] // want `unmasked table index`
}

// GoodVal masks the register-file pattern to the table geometry.
func GoodVal(t []uint8, m *history.PCMap, slot int) uint8 {
	return t[m.Val(slot)&uint64(len(t)-1)]
}

// BadAccess indexes with the fused probe's returned pattern.
func BadAccess(t []uint8, p *history.Perfect, b branch) uint8 {
	return t[p.Access(b.PC, b.Taken)] // want `unmasked table index`
}

// fold XOR-folds a history pattern; its result stays tainted (taint
// flows through ^ and >>), like a from-scratch history fold.
func fold(h uint64, width int) uint64 {
	var f uint64
	for h != 0 {
		f ^= h
		h >>= width
	}
	return f
}

// GoodTagged is the tagged-table probe shape: both the row index and
// the partial tag mask their PC/history hash before any table touch.
func GoodTagged(tags []uint64, live []bool, reg *history.ShiftRegister, b branch) bool {
	word := b.PC >> 2
	idx := (word ^ word>>6 ^ fold(reg.Value(), 6)) & uint64(len(tags)-1)
	tag := (word ^ fold(reg.Value(), 8) ^ fold(reg.Value(), 7)<<1) & 0xff
	return live[idx] && tags[idx] == tag
}

// BadTaggedIndex probes a tagged table with the raw hash: the fold
// narrows nothing, so the row index is unbounded.
func BadTaggedIndex(tags []uint64, reg *history.ShiftRegister, b branch) uint64 {
	word := b.PC >> 2
	return tags[word^fold(reg.Value(), 6)] // want `unmasked table index`
}

// BadTagMask narrows the partial tag with a constant that is not
// 2^k-1: tag bits silently vanish and distinct branches collide.
func BadTagMask(reg *history.ShiftRegister, b branch) uint64 {
	word := b.PC >> 2
	return (word ^ fold(reg.Value(), 8)) & 0x3e // want `constant mask 62 over PC/history bits is not of the form 2\^k-1`
}

// GoodWeights is the perceptron weight-table shape: the row index is
// masked first and the flattened base offset derives from the clean
// index, so base*stride+k needs no further laundering.
func GoodWeights(weights []int32, b branch, stride int) int32 {
	idx := int(b.PC>>2) & 0xff
	base := idx * stride
	return weights[base] + weights[base+1]
}

// BadWeights flattens the weight-table offset from raw PC bits: the
// stride multiply propagates the taint into the index expression.
func BadWeights(weights []int32, b branch, stride int) int32 {
	base := int(b.PC>>2) * stride
	return weights[base] // want `unmasked table index`
}

// MapsExempt: map lookups cannot alias, any key is fine.
func MapsExempt(m map[uint64]int, pc uint64) int {
	return m[pc]
}

// CleanIndex: indices not derived from PC or history need no mask.
func CleanIndex(t []uint8, i int) uint8 {
	return t[i]
}
