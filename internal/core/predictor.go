// Package core implements the paper's subject matter: the general
// two-level branch predictor model of Figure 1 and every prediction
// scheme the paper studies, instrumented to measure the aliasing
// phenomena that are its central finding.
//
// A two-level predictor is a table of state machines (second level)
// indexed by a row — chosen by a RowSelector from branch history — and
// a column — chosen by low branch-address bits. Every scheme in the
// paper is a (RowSelector, table shape) pair:
//
//	address-indexed   constant row, 2^c columns
//	GAg               global history row, 1 column
//	GAs               global history row, 2^c columns
//	gshare            global history XOR address row, 2^c columns
//	path (Nair)       target-address-bits row, 2^c columns
//	PAg/PAs           per-branch history row, 1 or 2^c columns
//
// Aliasing — consecutive accesses to one counter by distinct branches
// — is tracked by an optional AliasMeter, and first-level history
// table conflicts are reported by the PAs selectors, keeping the two
// effects the paper says "past studies have sometimes confused"
// separately measurable.
package core

import (
	"fmt"

	"bpred/internal/trace"
)

// Predictor is a dynamic branch predictor. The simulator drives it in
// strict Predict-then-Update alternation per branch: Predict must not
// examine b.Taken, and Update trains with the resolved outcome.
type Predictor interface {
	// Predict returns the predicted direction for the branch. It may
	// use b.PC and nothing else about the instance.
	Predict(b trace.Branch) bool
	// Update trains the predictor with the resolved branch (b.Taken
	// is the actual outcome, b.Target the actual target). Update must
	// be called exactly once after each Predict, with the same branch.
	Update(b trace.Branch)
	// Name returns a configuration-qualified scheme name, e.g.
	// "GAs-2^6x2^9".
	Name() string
}

// AliasReporter is implemented by predictors that meter second-level
// table aliasing.
type AliasReporter interface {
	AliasStats() AliasStats
}

// FirstLevelReporter is implemented by predictors with a finite
// first-level history table (PAs).
type FirstLevelReporter interface {
	// FirstLevelMissRate returns conflicts per lookup in the
	// first-level table — Table 3's "First-level Table Miss Rate".
	FirstLevelMissRate() float64
}

// StaticTaken predicts every branch taken.
type StaticTaken struct{}

// Predict always returns taken.
func (StaticTaken) Predict(trace.Branch) bool { return true }

// Update is a no-op.
func (StaticTaken) Update(trace.Branch) {}

// Name identifies the scheme.
func (StaticTaken) Name() string { return "static-taken" }

// StaticNotTaken predicts every branch not taken.
type StaticNotTaken struct{}

// Predict always returns not-taken.
func (StaticNotTaken) Predict(trace.Branch) bool { return false }

// Update is a no-op.
func (StaticNotTaken) Update(trace.Branch) {}

// Name identifies the scheme.
func (StaticNotTaken) Name() string { return "static-not-taken" }

// BTFNT is the classic static heuristic: backward branches (loops)
// predicted taken, forward branches predicted not taken.
type BTFNT struct{}

// Predict compares target and branch addresses.
func (BTFNT) Predict(b trace.Branch) bool { return b.Target < b.PC }

// Update is a no-op.
func (BTFNT) Update(trace.Branch) {}

// Name identifies the scheme.
func (BTFNT) Name() string { return "static-btfnt" }

// ProfileStatic predicts each branch's majority direction from a
// profiling run — the Fisher/Freudenberger-style profile-guided
// static predictor the paper cites. Branches absent from the profile
// fall back to BTFNT.
type ProfileStatic struct {
	direction map[uint64]bool
}

// NewProfileStatic builds the predictor from trace statistics
// gathered on a profiling run.
func NewProfileStatic(s *trace.Stats) *ProfileStatic {
	dir := make(map[uint64]bool, len(s.Profiles()))
	for _, p := range s.Profiles() {
		dir[p.PC] = p.Taken*2 >= p.Count
	}
	return &ProfileStatic{direction: dir}
}

// Predict returns the profiled majority direction.
func (p *ProfileStatic) Predict(b trace.Branch) bool {
	if d, ok := p.direction[b.PC]; ok {
		return d
	}
	return BTFNT{}.Predict(b)
}

// Update is a no-op: the profile is fixed.
func (p *ProfileStatic) Update(trace.Branch) {}

// Name identifies the scheme.
func (p *ProfileStatic) Name() string { return "static-profile" }

// checkBits validates a log2 size parameter.
func checkBits(name string, v, max int) {
	if v < 0 || v > max {
		panic(fmt.Sprintf("core: %s=%d out of [0,%d]", name, v, max))
	}
}

// satStep is the branch-free saturating counter step: up (0 or 1)
// moves c toward top when set and toward 0 when clear.
func satStep(c, up, top uint8) uint8 {
	return c + up&b2u8(c < top) - (1-up)&b2u8(c > 0)
}

// b2u8 converts a bool to 0 or 1.
func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
