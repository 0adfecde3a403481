// Package counter implements the prediction state machines that
// populate the second level of two-level branch predictors: k-bit
// saturating up/down counters (the two-bit counter of Smith [Smith81]
// being the paper's default), one-bit last-outcome machines, and fixed
// (static) predictors.
//
// All machines implement the Machine interface. Tables of machines are
// provided by Table, which packs two-bit counters densely and supports
// the per-entry conflict bookkeeping the paper's aliasing analysis
// requires (see bpred/internal/core).
package counter

import "fmt"

// Machine is a prediction state machine: it produces a taken/not-taken
// prediction and is trained with actual outcomes.
type Machine interface {
	// Predict returns the current prediction (true = taken).
	Predict() bool
	// Update trains the machine with the actual outcome.
	Update(taken bool)
	// Reset returns the machine to its initial state.
	Reset()
}

// Saturating is a k-bit saturating up/down counter. States range over
// [0, 2^bits - 1]; states in the upper half predict taken. The two-bit
// counter (bits=2) has the classic four states: strongly not-taken (0),
// weakly not-taken (1), weakly taken (2), strongly taken (3).
type Saturating struct {
	bits  uint8
	max   uint8
	init  uint8
	state uint8
}

// NewSaturating returns a k-bit saturating counter initialized to
// state init. It panics if bits is 0 or greater than 8, or if init
// exceeds the maximum state.
func NewSaturating(bits int, init int) *Saturating {
	if bits <= 0 || bits > 8 {
		panic(fmt.Sprintf("counter: NewSaturating with bits=%d (want 1..8)", bits))
	}
	max := uint8(1<<bits - 1)
	if init < 0 || uint8(init) > max {
		panic(fmt.Sprintf("counter: NewSaturating init=%d out of [0,%d]", init, max))
	}
	return &Saturating{bits: uint8(bits), max: max, init: uint8(init), state: uint8(init)}
}

// NewTwoBit returns the paper's default predictor state machine: a
// two-bit saturating counter initialized to weakly taken (state 2).
// Initializing to weak-taken reflects the common hardware choice and
// the observation that branches are taken more often than not.
func NewTwoBit() *Saturating { return NewSaturating(2, 2) }

// Predict reports taken when the state is in the upper half.
func (s *Saturating) Predict() bool { return s.state > s.max/2 }

// Update increments the counter on taken, decrements on not-taken,
// saturating at both ends: Table.Update's transition.
func (s *Saturating) Update(taken bool) { s.state = next(s.state, s.max, taken) }

// Reset restores the initial state.
func (s *Saturating) Reset() { s.state = s.init }

// State exposes the current state for tests and instrumentation.
func (s *Saturating) State() int { return int(s.state) }

// Bits returns the counter width.
func (s *Saturating) Bits() int { return int(s.bits) }

// LastOutcome is a one-bit predictor: predict whatever the branch did
// last time. Equivalent to a 1-bit saturating counter but kept as its
// own type because it is a common baseline in the literature
// [Smith81, Lee84].
type LastOutcome struct {
	taken bool
	init  bool
}

// NewLastOutcome returns a last-outcome machine whose initial
// prediction is initTaken.
func NewLastOutcome(initTaken bool) *LastOutcome {
	return &LastOutcome{taken: initTaken, init: initTaken}
}

// Predict returns the previous outcome.
func (l *LastOutcome) Predict() bool { return l.taken }

// Update records the outcome.
func (l *LastOutcome) Update(taken bool) { l.taken = taken }

// Reset restores the initial prediction.
func (l *LastOutcome) Reset() { l.taken = l.init }

// Fixed is a static machine that always predicts the same direction
// and ignores training. It implements the "S" (static) second-level
// option in Yeh and Patt's taxonomy.
type Fixed bool

// Predict returns the fixed direction.
func (f Fixed) Predict() bool { return bool(f) }

// Update is a no-op: static predictions never train.
func (Fixed) Update(bool) {}

// Reset is a no-op.
func (Fixed) Reset() {}

// Agree wraps a machine so that its state encodes agreement with a
// per-branch bias bit rather than a direction. This is the mechanism
// of agree predictors (Sprangle et al.), a dealiasing design directly
// motivated by this paper's aliasing findings; it is included as an
// extension (see core.NewAgree).
type Agree struct {
	inner Machine
}

// NewAgree wraps inner; inner's taken state now means "agrees with the
// bias bit".
func NewAgree(inner Machine) *Agree { return &Agree{inner: inner} }

// PredictWithBias resolves the agreement state against the bias bit.
func (a *Agree) PredictWithBias(bias bool) bool {
	if a.inner.Predict() {
		return bias
	}
	return !bias
}

// UpdateWithBias trains toward "agreed" when the outcome matched bias.
func (a *Agree) UpdateWithBias(taken, bias bool) {
	a.inner.Update(taken == bias)
}

// Reset resets the wrapped machine.
func (a *Agree) Reset() { a.inner.Reset() }
