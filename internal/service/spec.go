package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"bpred/internal/core"
	"bpred/internal/sim"
	"bpred/internal/sweep"
)

// JobSpec is the client-visible description of one sweep job: which
// uploaded trace to drive and which design-space slice to evaluate.
// It maps one-to-one onto sweep.Options, so a job evaluates exactly
// the cells a `bpsweep` invocation with the same parameters would.
type JobSpec struct {
	// Trace is the hex SHA-256 content digest of an uploaded trace
	// (returned by POST /v1/traces).
	Trace string `json:"trace"`
	// Scheme selects the predictor family: address, gas, gshare,
	// path, pas, tage, perceptron, or tournament (case-insensitive).
	Scheme string `json:"scheme"`
	// MinBits/MaxBits bound the counter-budget tiers (log2); zero
	// values default to the paper's 4..15.
	MinBits int `json:"min_bits,omitempty"`
	MaxBits int `json:"max_bits,omitempty"`
	// Tiers, when non-empty, selects exactly these counter budgets
	// instead of the contiguous MinBits..MaxBits range.
	Tiers []int `json:"tiers,omitempty"`
	// Warmup is the number of unscored leading branches.
	Warmup int `json:"warmup,omitempty"`
	// Metered attaches aliasing meters to every configuration.
	Metered bool `json:"metered,omitempty"`
	// PathBits applies to the path scheme (0 = default).
	PathBits int `json:"path_bits,omitempty"`
	// FirstLevel applies to the pas scheme.
	FirstLevel *FirstLevelSpec `json:"first_level,omitempty"`
	// TAGE applies to the tage scheme (nil = defaults).
	TAGE *TAGESpec `json:"tage,omitempty"`
	// Perceptron applies to the perceptron scheme (nil = defaults).
	Perceptron *PerceptronSpec `json:"perceptron,omitempty"`
	// ChooserBits applies to the tournament scheme (0 = row bits).
	ChooserBits int `json:"chooser_bits,omitempty"`
}

// FirstLevelSpec configures the PAs first-level history table.
type FirstLevelSpec struct {
	// Kind is perfect, setassoc, or untagged.
	Kind    string `json:"kind"`
	Entries int    `json:"entries,omitempty"`
	Ways    int    `json:"ways,omitempty"`
}

// TAGESpec configures the tagged-geometric predictor's geometry knobs
// (see core.TAGEParams; zero fields take the documented defaults).
type TAGESpec struct {
	Tables  int `json:"tables,omitempty"`
	MinHist int `json:"min_hist,omitempty"`
	MaxHist int `json:"max_hist,omitempty"`
	TagBits int `json:"tag_bits,omitempty"`
	// UPeriod is the useful-bit aging period; -1 disables aging.
	UPeriod int `json:"u_period,omitempty"`
}

// PerceptronSpec configures the perceptron predictor's weight width
// and training threshold (see core.PerceptronParams).
type PerceptronSpec struct {
	WeightBits int `json:"weight_bits,omitempty"`
	Threshold  int `json:"threshold,omitempty"`
}

// parseScheme maps the wire name onto core.Scheme.
func parseScheme(s string) (core.Scheme, error) {
	switch strings.ToLower(s) {
	case "address", "bimodal":
		return core.SchemeAddress, nil
	case "gas":
		return core.SchemeGAs, nil
	case "gshare":
		return core.SchemeGShare, nil
	case "path":
		return core.SchemePath, nil
	case "pas":
		return core.SchemePAs, nil
	case "tage":
		return core.SchemeTAGE, nil
	case "perceptron":
		return core.SchemePerceptron, nil
	case "tournament":
		return core.SchemeTournament, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (want address, gas, gshare, path, pas, tage, perceptron, or tournament)", s)
	}
}

// sweepOptions translates the spec into the sweep layer's Options
// (without execution-side fields: checkpoint store and obs counters
// are wired by the executor).
func (s JobSpec) sweepOptions() (sweep.Options, error) {
	scheme, err := parseScheme(s.Scheme)
	if err != nil {
		return sweep.Options{}, err
	}
	o := sweep.Options{
		Scheme:      scheme,
		MinBits:     s.MinBits,
		MaxBits:     s.MaxBits,
		Tiers:       append([]int(nil), s.Tiers...),
		Metered:     s.Metered,
		PathBits:    s.PathBits,
		ChooserBits: s.ChooserBits,
		Sim:         sim.Options{Warmup: s.Warmup},
	}
	if s.TAGE != nil {
		o.TAGE = core.TAGEParams{
			Tables:  s.TAGE.Tables,
			MinHist: s.TAGE.MinHist,
			MaxHist: s.TAGE.MaxHist,
			TagBits: s.TAGE.TagBits,
			UPeriod: s.TAGE.UPeriod,
		}
	}
	if s.Perceptron != nil {
		o.Perceptron = core.PerceptronParams{
			WeightBits: s.Perceptron.WeightBits,
			Threshold:  s.Perceptron.Threshold,
		}
	}
	if s.FirstLevel != nil {
		fl := core.FirstLevel{Entries: s.FirstLevel.Entries, Ways: s.FirstLevel.Ways}
		switch strings.ToLower(s.FirstLevel.Kind) {
		case "", "perfect":
			fl.Kind = core.FirstLevelPerfect
		case "setassoc":
			fl.Kind = core.FirstLevelSetAssoc
		case "untagged":
			fl.Kind = core.FirstLevelUntagged
		default:
			return sweep.Options{}, fmt.Errorf("unknown first-level kind %q", s.FirstLevel.Kind)
		}
		o.FirstLevel = fl
	}
	return o, nil
}

// validate checks the spec and returns the decoded trace digest, the
// sweep options, and the full configuration list. Every enumerated
// configuration is validated up front so a bad spec fails at submit
// time with a 400, never inside a worker.
func (s JobSpec) validate() ([32]byte, sweep.Options, []core.Config, error) {
	var digest [32]byte
	raw, err := hex.DecodeString(s.Trace)
	if err != nil || len(raw) != len(digest) {
		return digest, sweep.Options{}, nil, fmt.Errorf("trace must be a %d-hex-digit SHA-256 digest", 2*len(digest))
	}
	copy(digest[:], raw)
	if s.Warmup < 0 {
		return digest, sweep.Options{}, nil, fmt.Errorf("negative warmup %d", s.Warmup)
	}
	o, err := s.sweepOptions()
	if err != nil {
		return digest, sweep.Options{}, nil, err
	}
	seen := make(map[int]bool, len(o.Tiers))
	for _, n := range o.Tiers {
		if n < 0 || n > 30 {
			return digest, sweep.Options{}, nil, fmt.Errorf("tier %d outside [0, 30]", n)
		}
		if seen[n] {
			return digest, sweep.Options{}, nil, fmt.Errorf("duplicate tier %d", n)
		}
		seen[n] = true
	}
	if len(o.Tiers) == 0 {
		lo, hi := o.MinBits, o.MaxBits
		if lo == 0 && hi == 0 {
			lo, hi = sweep.DefaultMinBits, sweep.DefaultMaxBits
		}
		if lo < 0 || hi > 30 || lo > hi {
			return digest, sweep.Options{}, nil, fmt.Errorf("bad tier bounds [%d, %d]", lo, hi)
		}
	}
	configs := sweep.Configs(o)
	if len(configs) == 0 {
		return digest, sweep.Options{}, nil, fmt.Errorf("spec enumerates no configurations")
	}
	if len(configs) > maxJobCells {
		return digest, sweep.Options{}, nil, fmt.Errorf("spec enumerates %d configurations, cap is %d", len(configs), maxJobCells)
	}
	for _, c := range configs {
		if err := c.Validate(); err != nil {
			return digest, sweep.Options{}, nil, err
		}
	}
	return digest, o, configs, nil
}

// maxJobCells bounds one job's configuration count; the full paper
// sweep (tiers 4..15) is 150 cells, so the cap only rejects abusive
// specs, not real ones.
const maxJobCells = 1 << 12

// jobKey derives the single-flight dedup identity of a job: a
// SHA-256 over the trace digest, the warmup, and every enumerated
// configuration fingerprint, in order. Two specs with the same key
// request bit-identical work (the simulator is deterministic in
// exactly these inputs), so concurrent submissions collapse onto one
// execution and repeated ones onto one cached result.
func jobKey(digest [32]byte, warmup int, configs []core.Config) string {
	h := sha256.New()
	h.Write([]byte("bpserved-job-key-v1\x00"))
	h.Write(digest[:])
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(warmup))
	h.Write(buf[:])
	for _, c := range configs {
		fp := c.Fingerprint()
		binary.LittleEndian.PutUint64(buf[:], uint64(len(fp)))
		h.Write(buf[:])
		h.Write([]byte(fp))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// AliasResult is the aliasing taxonomy of one metered cell. The
// tagged-table extension fields (tag conflicts, useful-bit
// victimizations, provider overrides) only appear for schemes that
// produce them (tage) and are omitted when zero.
type AliasResult struct {
	Accesses    uint64 `json:"accesses"`
	Conflicts   uint64 `json:"conflicts"`
	AllOnes     uint64 `json:"all_ones"`
	Agreeing    uint64 `json:"agreeing"`
	Destructive uint64 `json:"destructive"`

	TagAgree        uint64 `json:"tag_agree,omitempty"`
	TagDisagree     uint64 `json:"tag_disagree,omitempty"`
	UsefulVictims   uint64 `json:"useful_victims,omitempty"`
	Overrides       uint64 `json:"overrides,omitempty"`
	OverrideCorrect uint64 `json:"override_correct,omitempty"`
}

// CellResult is one evaluated configuration in a job result.
type CellResult struct {
	Name           string       `json:"name"`
	Fingerprint    string       `json:"fingerprint"`
	TableBits      int          `json:"table_bits"`
	RowBits        int          `json:"row_bits"`
	ColBits        int          `json:"col_bits"`
	Branches       uint64       `json:"branches"`
	Mispredicts    uint64       `json:"mispredicts"`
	MispredictRate float64      `json:"mispredict_rate"`
	Alias          *AliasResult `json:"alias,omitempty"`
	// FirstLevelMissRate is the PAs first-level conflict rate.
	FirstLevelMissRate float64 `json:"first_level_miss_rate,omitempty"`
}

// JobResult is the terminal payload of a job. For canceled or drained
// jobs it carries the partial-result contract: every cell that
// completed before the interruption, and Partial=true.
type JobResult struct {
	Job        string       `json:"job"`
	State      State        `json:"state"`
	Trace      string       `json:"trace"`
	TraceName  string       `json:"trace_name"`
	Scheme     string       `json:"scheme"`
	Warmup     int          `json:"warmup"`
	CellsTotal int          `json:"cells_total"`
	Partial    bool         `json:"partial"`
	Cells      []CellResult `json:"cells"`
}

// buildResult assembles the deterministic result payload: cells in
// enumeration order (ascending tier, then row bits), restricted to
// the fingerprints present in collected.
func buildResult(j *Job, traceName string, collected map[string]sim.Metrics) *JobResult {
	res := &JobResult{
		Job:        j.ID,
		Trace:      j.Spec.Trace,
		TraceName:  traceName,
		Scheme:     j.Spec.Scheme,
		Warmup:     j.Spec.Warmup,
		CellsTotal: len(j.Configs),
	}
	for _, c := range j.Configs {
		m, ok := collected[c.Fingerprint()]
		if !ok {
			continue
		}
		cell := CellResult{
			Name:               m.Name,
			Fingerprint:        c.Fingerprint(),
			TableBits:          c.TableBits(),
			RowBits:            c.RowBits,
			ColBits:            c.ColBits,
			Branches:           m.Branches,
			Mispredicts:        m.Mispredicts,
			MispredictRate:     m.MispredictRate(),
			FirstLevelMissRate: m.FirstLevelMissRate,
		}
		if c.Metered {
			cell.Alias = &AliasResult{
				Accesses:    m.Alias.Accesses,
				Conflicts:   m.Alias.Conflicts,
				AllOnes:     m.Alias.AllOnes,
				Agreeing:    m.Alias.Agreeing,
				Destructive: m.Alias.Destructive,

				TagAgree:        m.Alias.TagAgree,
				TagDisagree:     m.Alias.TagDisagree,
				UsefulVictims:   m.Alias.UsefulVictims,
				Overrides:       m.Alias.Overrides,
				OverrideCorrect: m.Alias.OverrideCorrect,
			}
		}
		res.Cells = append(res.Cells, cell)
	}
	sort.SliceStable(res.Cells, func(a, b int) bool {
		if res.Cells[a].TableBits != res.Cells[b].TableBits {
			return res.Cells[a].TableBits < res.Cells[b].TableBits
		}
		return res.Cells[a].RowBits < res.Cells[b].RowBits
	})
	res.Partial = len(res.Cells) < res.CellsTotal
	return res
}
