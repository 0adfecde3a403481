package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"bpred/internal/core"
	"bpred/internal/rng"
	"bpred/internal/service"
	"bpred/internal/sim"
	"bpred/internal/sweep"
	"bpred/internal/trace"
	"bpred/internal/workload"
)

// sizes are the input sizes of a run. Smoke runs use tiny ones.
type sizes struct {
	branches       int    // resident trace length
	streamBranches int    // stream_ingest's per-op trace length
	streamCutoff   uint64 // stream_ingest's Config.StreamBranches
	minBits        int    // fig4_cold and warm_cache tier range
	maxBits        int
	modernTier     int   // modern_cold's one tier
	streamTiers    []int // stream_ingest's sweep
	warmTiers      int   // tiers per warm_cache job
	setups         int   // set-ups before the ops and again after them
}

const (
	// warmupOps untimed ops run before the measured ones.
	warmupOps = 1
	// tailOps is the least number of measured ops in a run. op_tail_s
	// is the order statistic with ten ops above it, so with 100 ops or
	// more it sits at p90 or higher.
	tailOps = 100
)

var (
	fullSizes = sizes{
		branches:       1 << 18,
		streamBranches: 1 << 20,
		streamCutoff:   1 << 19,
		minBits:        4,
		maxBits:        16,
		modernTier:     8,
		streamTiers:    []int{10},
		warmTiers:      6,
		setups:         10,
	}
	smokeSizes = sizes{
		branches:       1 << 14,
		streamBranches: 1 << 15,
		streamCutoff:   1 << 14,
		minBits:        4,
		maxBits:        12,
		modernTier:     5,
		streamTiers:    []int{6},
		warmTiers:      4,
		setups:         1,
	}
)

// profileName is the synthetic program every workload's traces come
// from: gcc has the largest branch footprint of the paper's suite, so
// tables alias at every tier the sweeps cover.
const profileName = "gcc"

// jobPlan is one job of an op with the cells its result must hold.
type jobPlan struct {
	opts sweep.Options
	want cellSet
}

// opPlan is everything one op needs, built outside the timed window.
type opPlan struct {
	digest string // resident trace the jobs run over
	upload string // BPT1 file to upload first instead (stream_ingest), or ""
	jobs   []jobPlan
}

// scenario is one benchmark workload. Every method except setup runs
// outside the timed windows.
type scenario interface {
	// serviceConfig returns the manager settings.
	serviceConfig(z sizes) service.Config
	// prepare generates the run's inputs from the seed and computes the
	// references of its ops. dir is scratch space for input files.
	prepare(z sizes, seed uint64, ops int, dir string) error
	// setup uploads the resident traces and primes the service; it is
	// what setup_s times, after NewManager.
	setup(s *server) error
	// op returns op i's plan; ops before the measured ones are warm-up.
	op(i int) (opPlan, error)
	// release drops inputs the measured loop no longer needs, so the
	// live heap holds the service's state rather than the harness's.
	release()
	// replay returns the inputs of the traced replay.
	replay() (replayPlan, error)
}

// spec describes one workload to the command line.
type spec struct {
	name string
	// opsPerSecond sets the fixed op count: opsPerSecond × -seconds
	// measured ops, and never fewer than tailOps. It is a constant,
	// never measured, so the state a run leaves behind does not depend
	// on how fast the program is.
	opsPerSecond float64
	// pipeline names the spans one op is made of; the traced run
	// reports the op time they leave unexplained as unattributed_s.
	pipeline []string
	make     func() scenario
}

var specs = []spec{
	{
		name:         "fig4_cold",
		opsPerSecond: 6.25,
		pipeline:     []string{"service.submit_s", "sim.fused_s", "checkpoint.lookup_s", "checkpoint.flush_s", "service.result_s"},
		make:         func() scenario { return &fig4Cold{} },
	},
	{
		name:         "modern_cold",
		opsPerSecond: 6.25,
		pipeline:     []string{"service.submit_s", "sim.modern_s", "checkpoint.lookup_s", "checkpoint.flush_s", "service.result_s"},
		make:         func() scenario { return &modernCold{} },
	},
	{
		name:         "stream_ingest",
		opsPerSecond: 6.25,
		pipeline:     []string{"service.upload_s", "service.submit_s", "sim.stream_s", "checkpoint.lookup_s", "checkpoint.flush_s", "service.result_s"},
		make:         func() scenario { return &streamIngest{} },
	},
	{
		name:         "warm_cache",
		opsPerSecond: 20,
		pipeline:     []string{"service.submit_s", "checkpoint.lookup_s", "service.result_s"},
		make:         func() scenario { return &warmCache{} },
	},
}

func workloadByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// writeBPT1 serializes a trace in the upload format clients send.
func writeBPT1(out io.Writer, tr *trace.Trace) error {
	w, err := trace.NewWriter(out, tr.Name, tr.Instructions, uint64(tr.Len()))
	if err != nil {
		return err
	}
	for _, b := range tr.Branches {
		if err := w.WriteBranch(b); err != nil {
			return err
		}
	}
	return w.Close()
}

// encodeBPT1 returns a trace's upload bytes.
func encodeBPT1(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	err := writeBPT1(&buf, tr)
	return buf.Bytes(), err
}

// writeBPT1File writes a trace's upload bytes to path.
func writeBPT1File(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = writeBPT1(bw, tr)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// programSeed fixes the synthetic program's structure. The run seed
// only picks which of the program's executions a trace records, so
// every seed loads the layers with the same branch population and
// runs differ by their inputs' instance, not their kind.
const programSeed = 1996

// program builds the synthetic program.
func program() (*workload.Program, error) {
	p, ok := workload.ProfileByName(profileName)
	if !ok {
		return nil, fmt.Errorf("no workload profile %q", profileName)
	}
	return workload.Build(p, programSeed), nil
}

// resident is a trace uploaded once in set-up and used by every op.
type resident struct {
	seed   uint64
	n      int
	tr     *trace.Trace
	path   string // the upload file
	digest string
}

// generate emits the resident trace and writes its upload file into
// dir.
func (r *resident) generate(seed uint64, n int, dir string) error {
	prog, err := program()
	if err != nil {
		return err
	}
	r.seed, r.n = seed, n
	r.tr = prog.Emit(n, rng.Mix64(seed))
	r.path = filepath.Join(dir, "resident.bpt1")
	return writeBPT1File(r.path, r.tr)
}

// serviceConfig keeps the service defaults: the resident traces are
// under the stream cutoff, so they decode.
func (r *resident) serviceConfig(sizes) service.Config { return service.Config{} }

// upload posts the resident trace and records its digest.
func (r *resident) upload(s *server) error {
	info, err := s.uploadFile(r.path)
	if err != nil {
		return err
	}
	r.digest = info.Digest
	return nil
}

// setup uploads the resident trace and runs one small job, so the
// first Acquire, which decodes the trace, happens in set-up and not in
// the first op. The job's warmup (0) is never used by a measured op.
func (r *resident) setup(s *server) error {
	if err := r.upload(s); err != nil {
		return err
	}
	_, err := runJob(s, &poller{}, service.JobSpec{Trace: r.digest, Scheme: "gshare", Tiers: []int{4}}, 0)
	return err
}

func (r *resident) release() { r.tr = nil }

// regenerate rebuilds the resident trace after release and reads its
// upload bytes, for the traced replay.
func (r *resident) regenerate() ([]byte, error) {
	if r.tr == nil {
		prog, err := program()
		if err != nil {
			return nil, err
		}
		r.tr = prog.Emit(r.n, rng.Mix64(r.seed))
	}
	return os.ReadFile(r.path)
}

// coldWarmups returns one distinct warmup per op, so every op's cells
// miss the checkpoint cache; the offset rotates with the seed.
func coldWarmups(seed uint64, ops int) []int {
	base := 256 + int(seed%1024)
	ws := make([]int, ops)
	for i := range ws {
		ws[i] = base + i
	}
	return ws
}

// fig4Cold: one gshare Figure-4 sweep per op over the resident trace,
// cold.
type fig4Cold struct {
	resident
	o       sweep.Options
	warmups []int
	refs    map[int]cellSet
}

func (w *fig4Cold) prepare(z sizes, seed uint64, ops int, dir string) error {
	if err := w.generate(seed, z.branches, dir); err != nil {
		return err
	}
	w.o = sweep.Options{Scheme: core.SchemeGShare, MinBits: z.minBits, MaxBits: z.maxBits}
	w.warmups = coldWarmups(seed, ops)
	var err error
	w.refs, err = warmupReferences(w.o, w.tr, w.warmups)
	return err
}

func (w *fig4Cold) op(i int) (opPlan, error) {
	o := w.o
	o.Sim.Warmup = w.warmups[i]
	return opPlan{digest: w.digest, jobs: []jobPlan{{opts: o, want: w.refs[o.Sim.Warmup]}}}, nil
}

func (w *fig4Cold) replay() (replayPlan, error) {
	bpt1, err := w.regenerate()
	if err != nil {
		return replayPlan{}, err
	}
	o := w.o
	o.Sim.Warmup = w.warmups[len(w.warmups)-1]
	return replayPlan{tr: w.tr, bpt1: bpt1, jobs: []sweep.Options{o}, stored: []sweep.Options{o}, gshare: o}, nil
}

// modernFamilies are the schemes of one modern_cold op, in job order.
var modernFamilies = []core.Scheme{core.SchemeTAGE, core.SchemePerceptron, core.SchemeTournament}

// modernCold: one cold TAGE, perceptron, and tournament job at one
// tier per op, over the resident trace.
type modernCold struct {
	resident
	tier    int
	warmups []int
	refs    []map[int]cellSet // per family, per warmup
}

func (w *modernCold) family(s core.Scheme, warmup int) sweep.Options {
	return sweep.Options{Scheme: s, Tiers: []int{w.tier}, Sim: sim.Options{Warmup: warmup}}
}

func (w *modernCold) prepare(z sizes, seed uint64, ops int, dir string) error {
	if err := w.generate(seed, z.branches, dir); err != nil {
		return err
	}
	w.tier = z.modernTier
	w.warmups = coldWarmups(seed, ops)
	w.refs = make([]map[int]cellSet, len(modernFamilies))
	for f, scheme := range modernFamilies {
		var err error
		if w.refs[f], err = warmupReferences(w.family(scheme, 0), w.tr, w.warmups); err != nil {
			return err
		}
	}
	return nil
}

func (w *modernCold) op(i int) (opPlan, error) {
	plan := opPlan{digest: w.digest}
	for f, scheme := range modernFamilies {
		plan.jobs = append(plan.jobs, jobPlan{opts: w.family(scheme, w.warmups[i]), want: w.refs[f][w.warmups[i]]})
	}
	return plan, nil
}

func (w *modernCold) replay() (replayPlan, error) {
	bpt1, err := w.regenerate()
	if err != nil {
		return replayPlan{}, err
	}
	warmup := w.warmups[len(w.warmups)-1]
	var jobs []sweep.Options
	for _, scheme := range modernFamilies {
		jobs = append(jobs, w.family(scheme, warmup))
	}
	return replayPlan{tr: w.tr, bpt1: bpt1, jobs: jobs, stored: jobs, gshare: w.family(core.SchemeGShare, warmup)}, nil
}

// streamIngest: each op uploads a fresh trace longer than the stream
// cutoff and runs a small gshare sweep streamed off disk.
type streamIngest struct {
	z    sizes
	seed uint64
	dir  string
	prog *workload.Program
	o    sweep.Options
	base string // the upload file of the trace set-up uploads
}

// streamWarmup is stream_ingest's warmup; its traces differ per op,
// so the cache misses without rotating it.
const streamWarmup = 1000

func (w *streamIngest) serviceConfig(z sizes) service.Config {
	return service.Config{StreamBranches: z.streamCutoff}
}

func (w *streamIngest) prepare(z sizes, seed uint64, ops int, dir string) error {
	var err error
	w.z, w.seed, w.dir = z, seed, dir
	if w.prog, err = program(); err != nil {
		return err
	}
	w.o = sweep.Options{Scheme: core.SchemeGShare, Tiers: z.streamTiers, Sim: sim.Options{Warmup: streamWarmup}}
	w.base = filepath.Join(dir, "base.bpt1")
	return writeBPT1File(w.base, w.trace(ops))
}

// setup uploads one trace of the ops' size that no op sweeps, so the
// service starts with its trace plane populated and set-up times the
// same ingest path every op pays.
func (w *streamIngest) setup(s *server) error {
	_, err := s.uploadFile(w.base)
	return err
}

// trace emits op i's trace: a fresh execution of the program per op.
func (w *streamIngest) trace(i int) *trace.Trace {
	return w.prog.Emit(w.z.streamBranches, rng.Mix64(w.seed)+uint64(i))
}

// op writes op i's trace to a file the op uploads from, so neither the
// trace nor its upload bytes are live on the heap while the op runs.
// It then collects: a collection that began while the trace was live
// would otherwise finish inside the op and report the trace in
// live_heap_peak_mb.
func (w *streamIngest) op(i int) (opPlan, error) {
	tr := w.trace(i)
	want, err := sweepCells(w.o, tr)
	if err != nil {
		return opPlan{}, err
	}
	path := filepath.Join(w.dir, "upload.bpt1")
	if err := writeBPT1File(path, tr); err != nil {
		return opPlan{}, err
	}
	runtime.GC()
	return opPlan{upload: path, jobs: []jobPlan{{opts: w.o, want: want}}}, nil
}

func (w *streamIngest) release() {}

func (w *streamIngest) replay() (replayPlan, error) {
	tr := w.trace(0)
	body, err := encodeBPT1(tr)
	if err != nil {
		return replayPlan{}, err
	}
	return replayPlan{tr: tr, bpt1: body, cutoff: w.z.streamCutoff, jobs: []sweep.Options{w.o}, stored: []sweep.Options{w.o}, gshare: w.o}, nil
}

// warmCache: set-up primes the checkpoint cache with a full gshare
// surface; each op submits a job over a tier list no earlier op used,
// whose cells are all cached, and fetches its result.
type warmCache struct {
	resident
	surface sweep.Options
	lists   [][]int
	ref     cellSet
}

// warmWarmup is the warmup of warm_cache's primed surface.
const warmWarmup = 1000

func (w *warmCache) prepare(z sizes, seed uint64, ops int, dir string) error {
	if err := w.generate(seed, z.branches, dir); err != nil {
		return err
	}
	w.surface = sweep.Options{Scheme: core.SchemeGShare, MinBits: z.minBits, MaxBits: z.maxBits, Sim: sim.Options{Warmup: warmWarmup}}
	var err error
	if w.lists, err = tierLists(z.minBits, z.maxBits, z.warmTiers, ops, seed); err != nil {
		return err
	}
	w.ref, err = sweepCells(w.surface, w.tr)
	return err
}

// setup uploads the trace and simulates the whole surface once, which
// fills the cache every op reads.
func (w *warmCache) setup(s *server) error {
	if err := w.upload(s); err != nil {
		return err
	}
	_, err := runJob(s, &poller{}, jobSpec(w.surface, w.digest), 0)
	return err
}

func (w *warmCache) op(i int) (opPlan, error) {
	o := w.surface
	o.MinBits, o.MaxBits = 0, 0
	o.Tiers = w.lists[i]
	return opPlan{digest: w.digest, jobs: []jobPlan{{opts: o, want: w.ref}}}, nil
}

func (w *warmCache) replay() (replayPlan, error) {
	bpt1, err := w.regenerate()
	if err != nil {
		return replayPlan{}, err
	}
	plan, _ := w.op(len(w.lists) - 1)
	return replayPlan{tr: w.tr, bpt1: bpt1, jobs: []sweep.Options{plan.jobs[0].opts}, stored: []sweep.Options{w.surface}, gshare: w.surface}, nil
}

// tierLists returns ops distinct tier lists over [lo, hi], each of k
// tiers with the same cell count, so every warm_cache op does the same
// work under a job key no other op has. Distinct subsets come first;
// past them, each subset recurs in a new order, which the job key also
// tells apart.
func tierLists(lo, hi, k, ops int, seed uint64) ([][]int, error) {
	byCells := map[int][][]int{}
	var walk func(next int, cur []int)
	walk = func(next int, cur []int) {
		if len(cur) == k {
			byCells[cellsOf(cur)] = append(byCells[cellsOf(cur)], append([]int(nil), cur...))
			return
		}
		for t := next; t <= hi; t++ {
			walk(t+1, append(cur, t))
		}
	}
	walk(lo, nil)
	var subsets [][]int
	for cells, s := range byCells {
		if len(s) > len(subsets) || (len(s) == len(subsets) && cells < cellsOf(subsets[0])) {
			subsets = s
		}
	}
	g := rng.NewXoshiro256(seed)
	for i := len(subsets) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		subsets[i], subsets[j] = subsets[j], subsets[i]
	}
	orders := 1
	for i := 2; i <= k; i++ {
		orders *= i
	}
	if ops > len(subsets)*orders {
		return nil, fmt.Errorf("%d ops need more distinct tier lists than %d", ops, len(subsets)*orders)
	}
	lists := make([][]int, ops)
	for i := range lists {
		lists[i] = permutation(subsets[i%len(subsets)], i/len(subsets))
	}
	return lists, nil
}

func cellsOf(tiers []int) int {
	n := 0
	for _, t := range tiers {
		n += t + 1
	}
	return n
}

// permutation returns the n-th ordering of s in lexicographic rank
// order (n = 0 is s itself).
func permutation(s []int, n int) []int {
	rest := append([]int(nil), s...)
	out := make([]int, 0, len(s))
	fact := 1
	for i := 2; i < len(s); i++ {
		fact *= i
	}
	for len(rest) > 0 {
		i := 0
		if len(rest) > 1 {
			i = n / fact
			n %= fact
			fact /= len(rest) - 1
		}
		out = append(out, rest[i])
		rest = append(rest[:i], rest[i+1:]...)
	}
	return out
}

// jobSpec maps sweep options onto the wire spec of a job.
func jobSpec(o sweep.Options, digest string) service.JobSpec {
	return service.JobSpec{
		Trace:   digest,
		Scheme:  o.Scheme.String(),
		MinBits: o.MinBits,
		MaxBits: o.MaxBits,
		Tiers:   o.Tiers,
		Warmup:  o.Sim.Warmup,
	}
}
