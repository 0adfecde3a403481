package core

import (
	"testing"

	"bpred/internal/rng"
	"bpred/internal/trace"
)

// foldHist XOR-folds h into width bits (0 when width is 0): the
// from-scratch fold that TAGE's shift-register folds must track.
func foldHist(h uint64, width int) uint64 {
	if width <= 0 {
		return 0
	}
	mask := uint64(1)<<width - 1
	var f uint64
	for h != 0 {
		f ^= h & mask
		h >>= width
	}
	return f
}

// TestTAGEFoldInvariant steps TAGE over random outcomes and checks,
// after every Update, that each table's three fold registers equal
// the from-scratch folds of its L_i-bit history window.
func TestTAGEFoldInvariant(t *testing.T) {
	cases := []struct {
		name    string
		rowBits int
		params  TAGEParams
	}{
		{"width0-rows", 0, TAGEParams{Tables: 4, MinHist: 3, MaxHist: 40, TagBits: 5}},
		{"width0-tag2", 4, TAGEParams{Tables: 3, MinHist: 2, MaxHist: 17, TagBits: 1}},
		{"width1", 1, TAGEParams{Tables: 4, MinHist: 1, MaxHist: 8, TagBits: 2}},
		{"width-ge-hist", 10, TAGEParams{Tables: 4, MinHist: 1, MaxHist: 8, TagBits: 16}},
		{"width-eq-hist", 8, TAGEParams{Tables: 2, MinHist: 4, MaxHist: 8, TagBits: 9}},
		{"hist64", 7, TAGEParams{Tables: 4, MinHist: 16, MaxHist: 64, TagBits: 11}},
		{"tables16", 3, TAGEParams{Tables: 16, MinHist: 1, MaxHist: 64, TagBits: 16, UPeriod: 97}},
		{"defaults", 8, TAGEParams{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewTAGE(tc.rowBits, 4, tc.params, false)
			np := tc.params.Normalized()
			widths := [3]int{tc.rowBits, np.TagBits, np.TagBits - 1}
			r := rng.NewXoshiro256(uint64(len(tc.name)))
			for step := 0; step < 3000; step++ {
				b := trace.Branch{PC: r.Uint64() & 0xfffc, Taken: r.Uint64()&1 == 1}
				p.Predict(b)
				p.Update(b)
				for i := 0; i < np.Tables; i++ {
					l := min(np.MinHist<<i, np.MaxHist)
					h := p.ghr & (^uint64(0) >> (64 - l))
					for k, w := range widths {
						if got, want := p.hists[i].folds[k].v, foldHist(h, w); got != want {
							t.Fatalf("step %d table %d (L=%d) width %d: fold %#x, want %#x",
								step, i, l, w, got, want)
						}
					}
				}
			}
		})
	}
}
