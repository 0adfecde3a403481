package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bpred/internal/atomicfile"
	"bpred/internal/obs"
)

// jobRecord is the persisted form of one job. Results are kept in
// separate per-job files (results/<id>.json) so a record stays small.
type jobRecord struct {
	ID          string    `json:"id"`
	Key         string    `json:"key"`
	Spec        JobSpec   `json:"spec"`
	Tenant      string    `json:"tenant,omitempty"`
	State       State     `json:"state"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// jobTable is the jobs.json layout.
type jobTable struct {
	Seq  uint64      `json:"seq"`
	Jobs []jobRecord `json:"jobs"`
}

// journalLine is one jobs.journal line: a job's whole record as it
// stood when the line was written, and the table's seq.
type journalLine struct {
	Seq uint64    `json:"seq"`
	Job jobRecord `json:"job"`
}

func (m *Manager) jobsPath() string    { return filepath.Join(m.cfg.DataDir, "jobs.json") }
func (m *Manager) journalPath() string { return filepath.Join(m.cfg.DataDir, "jobs.journal") }

func (m *Manager) resultPath(id string) string {
	return filepath.Join(m.cfg.DataDir, "results", id+".json")
}

// record returns the job's persisted form.
func (j *Job) record() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobRecord{
		ID:          j.ID,
		Key:         j.Key,
		Spec:        j.Spec,
		Tenant:      j.Tenant,
		State:       j.state,
		Error:       j.errText,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
}

// jobJournal is the append-only half of the job table: jobs.json is a
// snapshot rewritten only when the manager opens and when it drains,
// and jobs.journal takes one line per job transition in between, so a
// transition costs one line whatever the table's size. Appends take
// only the journal's lock, never the manager's. Nothing is synced: the
// table survives a process crash, not power loss (DESIGN.md §9).
type jobJournal struct {
	mu    sync.Mutex
	f     *os.File //bplint:guardedby mu // nil once closed
	seq   uint64   //bplint:guardedby mu // the highest table seq journaled
	lines int      //bplint:guardedby mu // lines since the last compaction
	size  int64    //bplint:guardedby mu // the file's size: bytes since the last compaction
}

var errJournalClosed = errors.New("service: job journal closed")

// appendLocked writes one line holding rec, a record of a job
// submitted at table seq seq, in one write call. Callers read the
// record under the journal's lock, so that of two lines for one job,
// the later always holds the later state, however the transitions'
// appends raced.
func (jl *jobJournal) appendLocked(seq uint64, rec jobRecord) error {
	if jl.f == nil {
		return errJournalClosed
	}
	jl.seq = max(jl.seq, seq)
	line, err := json.Marshal(journalLine{Seq: jl.seq, Job: rec})
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	line = append(line, '\n')
	if _, err := jl.f.Write(line); err != nil {
		// Cut a partial line back off, so the next append cannot turn
		// a torn tail into a corrupt middle line.
		return errors.Join(fmt.Errorf("service: appending to job journal: %w", err), jl.f.Truncate(jl.size))
	}
	jl.lines++
	jl.size += int64(len(line))
	return nil
}

// stats returns the lines and bytes journaled since the last
// compaction.
func (jl *jobJournal) stats() (lines int, size int64) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.lines, jl.size
}

// transition moves j out of state from, durable before visible: under
// the journal's lock, if j is in from, it lets set edit j's record,
// appends the edited record, and only then sets j's state, error and
// times from it. So no reader of j sees a state the journal does not
// hold yet, and two transitions of one job never interleave: a worker
// cannot start a job whose cancel is being committed. It reports
// whether j was in from.
func (m *Manager) transition(j *Job, from State, set func(*jobRecord)) bool {
	jl := m.journal
	jl.mu.Lock()
	defer jl.mu.Unlock()
	rec := j.record()
	if rec.State != from {
		return false
	}
	set(&rec)
	reportJournal(j, jl.appendLocked(j.seq, rec))
	j.mu.Lock()
	j.state, j.errText, j.started, j.finished = rec.State, rec.Error, rec.StartedAt, rec.FinishedAt
	j.mu.Unlock()
	return true
}

// reportJournal reports a failed append: the job goes on, and only
// restart recovery is weakened.
func reportJournal(j *Job, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpserved: journaling job %s: %v\n", j.ID, err)
	}
}

// snapshotLocked writes the whole table as jobs.json.
func (m *Manager) snapshotLocked() error {
	tbl := jobTable{Seq: m.seq, Jobs: make([]jobRecord, 0, len(m.order))}
	for _, id := range m.order {
		tbl.Jobs = append(tbl.Jobs, m.jobs[id].record())
	}
	return persistJSON(m.jobsPath(), tbl)
}

// closeJournal compacts the job table — a fresh jobs.json, an empty
// jobs.journal — and closes the journal, so later transitions are not
// persisted. The snapshot is renamed into place before the journal is
// cut: a crash between the two leaves lines that replay onto a
// snapshot already holding their state.
func (m *Manager) closeJournal() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	jl := m.journal
	jl.mu.Lock()
	defer jl.mu.Unlock()
	err := m.snapshotLocked()
	if err == nil {
		err = jl.f.Truncate(0)
	}
	err = errors.Join(err, jl.f.Close())
	jl.f, jl.lines, jl.size = nil, 0, 0
	return err
}

// readJournal parses jobs.journal. Only newline-terminated lines
// count: bytes after the last newline are a write the process died
// in, and are dropped. A terminated line that does not parse fails
// the open, naming the file and the line.
func readJournal(path string) ([]journalLine, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: reading job journal: %w", err)
	}
	if end := bytes.LastIndexByte(raw, '\n') + 1; end < len(raw) {
		fmt.Fprintf(os.Stderr, "bpserved: %s: dropping a torn final line (%d bytes)\n", path, len(raw)-end)
		raw = raw[:end]
	}
	var lines []journalLine
	for n := 1; len(raw) > 0; n++ {
		var text []byte
		text, raw, _ = bytes.Cut(raw, []byte{'\n'})
		var l journalLine
		err := json.Unmarshal(text, &l)
		if err == nil && l.Job.ID == "" {
			err = errors.New("no job id")
		}
		if err != nil {
			return nil, fmt.Errorf("service: corrupt job journal %s: line %d: %w", path, n, err)
		}
		lines = append(lines, l)
	}
	return lines, nil
}

// loadJobs restores the job table: the jobs.json snapshot with every
// jobs.journal line applied in order, the last line per job winning.
// Jobs the previous process left queued, running, or interrupted come
// back queued and are returned for re-enqueueing — their completed
// cells replay from the BPC1 cache, so resumption costs only the
// missing work. Jobs whose trace vanished from the store fail
// immediately instead of wedging a worker. It then compacts: the
// restored table becomes the snapshot and the journal starts empty.
//
//bplint:exclusive runs before the manager is shared; the jobs it builds are not yet published
func (m *Manager) loadJobs() ([]*Job, error) {
	var tbl jobTable
	if _, err := readJSON(m.jobsPath(), "job table", &tbl); err != nil {
		return nil, err
	}
	lines, err := readJournal(m.journalPath())
	if err != nil {
		return nil, err
	}
	m.seq = tbl.Seq
	recs := tbl.Jobs
	at := make(map[string]int, len(recs))
	for i, rec := range recs {
		at[rec.ID] = i
	}
	for _, l := range lines {
		m.seq = max(m.seq, l.Seq)
		if i, ok := at[l.Job.ID]; ok {
			recs[i] = l.Job
			continue
		}
		at[l.Job.ID] = len(recs)
		recs = append(recs, l.Job)
	}

	var resumable []*Job
	for _, rec := range recs {
		digest, opts, configs, err := rec.Spec.validate()
		j := &Job{
			ID:        rec.ID,
			Key:       rec.Key,
			Spec:      rec.Spec,
			Opts:      opts,
			Configs:   configs,
			Tenant:    rec.Tenant,
			digest:    digest,
			Obs:       &obs.Counters{},
			state:     rec.State,
			errText:   rec.Error,
			reason:    StateInterrupted,
			submitted: rec.SubmittedAt,
			started:   rec.StartedAt,
			finished:  rec.FinishedAt,
		}
		switch {
		case err != nil:
			// A record this process cannot re-validate (format drift)
			// is kept visible but inert.
			j.state = StateFailed
			j.errText = fmt.Sprintf("unloadable after restart: %v", err)
		case rec.State == StateQueued || rec.State == StateRunning || rec.State == StateInterrupted:
			if _, terr := m.traces.Info(rec.Spec.Trace); terr != nil {
				j.state = StateFailed
				j.errText = "trace not available after restart"
			} else {
				j.state = StateQueued
				j.started = time.Time{}
				j.finished = time.Time{}
				resumable = append(resumable, j)
			}
		}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		// Later submissions of a key supersede earlier ones, matching
		// submission-order replay.
		m.byKey[dedupKey(j.Tenant, j.Key)] = j
	}

	if err := m.snapshotLocked(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(m.journalPath(), os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: opening job journal: %w", err)
	}
	m.journal = &jobJournal{f: f, seq: m.seq}
	return resumable, nil
}

// persistResult writes a job's terminal payload.
func (m *Manager) persistResult(id string, res *JobResult) error {
	return persistJSON(m.resultPath(id), res)
}

// persistJSON replaces path with v's indented JSON form.
func persistJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = atomicfile.WriteFile(path, raw)
	}
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// loadResult reads a persisted result (restart path).
func (m *Manager) loadResult(id string) (*JobResult, error) {
	var res JobResult
	found, err := readJSON(m.resultPath(id), "result", &res)
	if err == nil && !found {
		err = fmt.Errorf("service: job %s has no persisted result", id)
	}
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// readJSON decodes path's JSON into v, calling the file what in its
// errors. A missing file leaves v as it was and reports false.
func readJSON(path, what string, v any) (bool, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("service: reading %s: %w", what, err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, fmt.Errorf("service: corrupt %s %s: %w", what, path, err)
	}
	return true, nil
}
