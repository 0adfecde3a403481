package counter

import (
	"testing"
	"testing/quick"
)

func TestTableDimensions(t *testing.T) {
	cases := []struct {
		rowBits, colBits int
		rows, cols, size int
	}{
		{0, 0, 1, 1, 1},
		{0, 4, 1, 16, 16},
		{4, 0, 16, 1, 16},
		{3, 5, 8, 32, 256},
		{6, 9, 64, 512, 32768},
	}
	for _, c := range cases {
		tab := NewTable(c.rowBits, c.colBits)
		if tab.Rows() != c.rows || tab.Cols() != c.cols || tab.Size() != c.size {
			t.Errorf("NewTable(%d,%d): rows=%d cols=%d size=%d, want %d/%d/%d",
				c.rowBits, c.colBits, tab.Rows(), tab.Cols(), tab.Size(),
				c.rows, c.cols, c.size)
		}
	}
}

func TestTableInitialPrediction(t *testing.T) {
	tab := NewTable(2, 2)
	for i := 0; i < tab.Size(); i++ {
		if !tab.Predict(i) {
			t.Fatalf("entry %d should initialize weakly taken", i)
		}
		if tab.State(i) != 2 {
			t.Fatalf("entry %d state %d, want 2", i, tab.State(i))
		}
	}
}

func TestTableIndexMasksInputs(t *testing.T) {
	tab := NewTable(2, 3) // 4 rows x 8 cols
	// Row 4+1 wraps to 1; col 8+5 wraps to 5.
	if got, want := tab.Index(5, 13), tab.Index(1, 5); got != want {
		t.Fatalf("Index(5,13)=%d, want wrap to Index(1,5)=%d", got, want)
	}
	// Flat layout: row-major.
	if got := tab.Index(1, 5); got != 1*8+5 {
		t.Fatalf("Index(1,5)=%d, want 13", got)
	}
	// All indexes in range even for huge inputs.
	for _, row := range []uint64{0, 3, 4, 1 << 40, ^uint64(0)} {
		for _, col := range []uint64{0, 7, 8, 1 << 63} {
			idx := tab.Index(row, col)
			if idx < 0 || idx >= tab.Size() {
				t.Fatalf("Index(%d,%d)=%d out of range", row, col, idx)
			}
		}
	}
}

func TestTableUpdateSaturation(t *testing.T) {
	tab := NewTable(1, 1)
	idx := tab.Index(0, 0)
	tab.Update(idx, true)
	tab.Update(idx, true)
	if tab.State(idx) != 3 {
		t.Fatalf("state %d after saturating up, want 3", tab.State(idx))
	}
	for i := 0; i < 6; i++ {
		tab.Update(idx, false)
	}
	if tab.State(idx) != 0 {
		t.Fatalf("state %d after saturating down, want 0", tab.State(idx))
	}
	if tab.Predict(idx) {
		t.Fatal("state 0 must predict not-taken")
	}
	// Entry (1,1) untouched.
	if other := tab.Index(1, 1); tab.State(other) != 2 {
		t.Fatal("update leaked into another entry")
	}
}

func TestTableMatchesScalarCounter(t *testing.T) {
	// The table's packed update rule must agree exactly with the
	// reference Saturating machine over a long pseudo-random stream.
	tab := NewTable(0, 0)
	ref := NewTwoBit()
	seq := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 10000; i++ {
		seq = seq*6364136223846793005 + 1442695040888963407
		taken := seq>>63 == 1
		if tab.Predict(0) != ref.Predict() {
			t.Fatalf("step %d: table predicts %v, scalar %v", i, tab.Predict(0), ref.Predict())
		}
		tab.Update(0, taken)
		ref.Update(taken)
	}
}

func TestTableReset(t *testing.T) {
	tab := NewTable(2, 2)
	for i := 0; i < tab.Size(); i++ {
		tab.Update(i, false)
		tab.Update(i, false)
	}
	tab.Reset()
	for i := 0; i < tab.Size(); i++ {
		if tab.State(i) != 2 {
			t.Fatalf("entry %d not reset: state %d", i, tab.State(i))
		}
	}
}

func TestTablePanics(t *testing.T) {
	for _, c := range []struct{ r, cbits int }{{-1, 0}, {0, -1}, {16, 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%d,%d) did not panic", c.r, c.cbits)
				}
			}()
			NewTable(c.r, c.cbits)
		}()
	}
}

// Property: state stays in 0..3 and Predict is consistent with state
// under arbitrary update streams at arbitrary indices.
func TestTableStateRangeProperty(t *testing.T) {
	tab := NewTable(3, 3)
	f := func(row, col uint64, taken bool) bool {
		idx := tab.Index(row, col)
		tab.Update(idx, taken)
		s := tab.State(idx)
		return s <= 3 && tab.Predict(idx) == (s >= 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTablePredictUpdate(b *testing.B) {
	tab := NewTable(6, 9)
	var pc uint64
	for i := 0; i < b.N; i++ {
		pc = pc*2862933555777941757 + 3037000493
		idx := tab.Index(pc>>20, pc>>2)
		taken := tab.Predict(idx)
		tab.Update(idx, !taken)
	}
}

func TestTableBitsWidths(t *testing.T) {
	for _, bits := range []int{1, 2, 3, 4, 8} {
		tab := NewTableBits(0, 2, bits)
		if tab.CounterBits() != bits {
			t.Errorf("CounterBits() = %d, want %d", tab.CounterBits(), bits)
		}
		max := 1<<bits - 1
		// Initial state is weakly taken.
		if !tab.Predict(0) {
			t.Errorf("bits=%d: initial prediction not taken", bits)
		}
		// Saturate up and down.
		for i := 0; i < max+3; i++ {
			tab.Update(0, true)
		}
		if int(tab.State(0)) != max {
			t.Errorf("bits=%d: saturated at %d, want %d", bits, tab.State(0), max)
		}
		for i := 0; i < 2*max+3; i++ {
			tab.Update(0, false)
		}
		if tab.State(0) != 0 || tab.Predict(0) {
			t.Errorf("bits=%d: floor state %d", bits, tab.State(0))
		}
	}
}

func TestOneBitTableIsLastOutcome(t *testing.T) {
	tab := NewTableBits(0, 0, 1)
	ref := NewLastOutcome(true)
	seq := uint64(77)
	for i := 0; i < 2000; i++ {
		seq = seq*6364136223846793005 + 1442695040888963407
		taken := seq>>63 == 1
		if tab.Predict(0) != ref.Predict() {
			t.Fatalf("step %d: 1-bit table %v vs last-outcome %v", i, tab.Predict(0), ref.Predict())
		}
		tab.Update(0, taken)
		ref.Update(taken)
	}
}

func TestHysteresisReducesAliasingDamage(t *testing.T) {
	// Two agree-on-nothing branches sharing one counter: with 1-bit
	// counters every collision flips the prediction; with 3-bit
	// counters the majority branch retains control. The minority
	// branch here fires once for every four majority instances.
	run := func(bits int) int {
		tab := NewTableBits(0, 0, bits)
		wrong := 0
		for i := 0; i < 500; i++ {
			for j := 0; j < 4; j++ {
				if !tab.Predict(0) {
					wrong++
				}
				tab.Update(0, true) // majority branch: taken
			}
			// minority branch: not-taken (its own mispredicts not counted)
			tab.Update(0, false)
		}
		return wrong
	}
	oneBit := run(1)
	threeBit := run(3)
	if threeBit >= oneBit {
		t.Fatalf("hysteresis did not help: 1-bit %d wrong vs 3-bit %d wrong", oneBit, threeBit)
	}
}

func TestNewTableBitsPanics(t *testing.T) {
	for _, bits := range []int{0, 9, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTableBits(0,0,%d) did not panic", bits)
				}
			}()
			NewTableBits(0, 0, bits)
		}()
	}
}

// TestBranchlessUpdateMatchesReference sweeps every (width, state,
// outcome) combination and checks the branchless saturating step and
// the fused Access against the straightforward branchy definition.
func TestBranchlessUpdateMatchesReference(t *testing.T) {
	ref := func(s, max uint8, taken bool) uint8 {
		if taken {
			if s < max {
				return s + 1
			}
			return s
		}
		if s > 0 {
			return s - 1
		}
		return s
	}
	for bits := 1; bits <= 8; bits++ {
		max := uint8(1<<bits - 1)
		for s := 0; s <= int(max); s++ {
			for _, taken := range []bool{false, true} {
				tab := NewTableBits(0, 0, bits)
				tab.state[0] = uint8(s)
				wantPred := tab.Predict(0)
				tab.Update(0, taken)
				if got, want := tab.State(0), ref(uint8(s), max, taken); got != want {
					t.Fatalf("bits=%d state=%d taken=%v: Update -> %d, want %d", bits, s, taken, got, want)
				}

				tab.state[0] = uint8(s)
				if pred := tab.Access(0, taken); pred != wantPred {
					t.Fatalf("bits=%d state=%d: Access predicted %v, want %v", bits, s, pred, wantPred)
				}
				if got, want := tab.State(0), ref(uint8(s), max, taken); got != want {
					t.Fatalf("bits=%d state=%d taken=%v: Access -> %d, want %d", bits, s, taken, got, want)
				}
			}
		}
	}
}

// TestStepMatchesAccess checks every Step entry a table can reach
// against Table.Access, exhaustively: for each width 1..8, each state
// 0..2^w-1 and both outcomes, step[s<<1|u] must hold the state Access
// leaves and whether Access's prediction missed.
func TestStepMatchesAccess(t *testing.T) {
	for bits := 1; bits <= 8; bits++ {
		tab := NewTableBits(0, 0, bits)
		_, step := tab.Raw()
		for s := 0; s < 1<<bits; s++ {
			for u, taken := range []bool{false, true} {
				tab.state[0] = uint8(s)
				pred := tab.Access(0, taken)
				want := uint16(tab.State(0)) | uint16(b2u8(pred != taken))<<8
				if got := step[s<<1|u]; got != want {
					t.Fatalf("bits=%d state=%d taken=%v: step = %#x, want %#x", bits, s, taken, got, want)
				}
			}
		}
	}
}
