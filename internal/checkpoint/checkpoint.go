// Package checkpoint persists partial sweep results so interrupted or
// repeated design-space sweeps replay only missing cells. The cache is
// content-addressed: a file is bound to one (trace digest, warmup)
// pair, and each entry maps a canonical configuration fingerprint
// (core.Config.Fingerprint) to the sim.Metrics it produced. Because
// the simulator is deterministic, a cached cell is bit-identical to a
// recomputed one, so a resumed sweep assembles a Surface byte-identical
// to an uninterrupted run (internal/sweep resume tests enforce this).
//
// On-disk format ("BPC1", version 2):
//
//	magic   [4]byte  "BPC1"
//	version uvarint  2
//	digest  [32]byte SHA-256 of the trace (trace.Trace.Digest)
//	warmup  uvarint  sim warmup the results were scored with
//	count   uvarint  number of entries
//	entries count times:
//	  fp       uvarint-len bytes  configuration fingerprint
//	  name     uvarint-len bytes  canonical predictor name
//	  branches, mispredicts                    uvarint
//	  accesses, conflicts, allOnes, agreeing,
//	  destructive                              uvarint
//	  tagAgree, tagDisagree, usefulVictims,
//	  overrides, overrideCorrect               uvarint (version >= 2)
//	  firstLevelMissRate                       8 bytes (IEEE 754 LE)
//
// Version 2 extends the alias block with the tagged-table taxonomy
// (TAGE tag conflicts — see core.AliasStats); writers emit version 2,
// and readers still accept version-1 files, whose entries carry zeros
// for the extension fields (correct: no version-1 scheme produces
// them).
//
// Entries are written in sorted fingerprint order, so a given result
// set always serializes to identical bytes. Readers never panic on
// hostile input: corrupt streams yield wrapped errors (fuzz and
// robustness tests cover truncation, bit flips, bad magic, and forged
// counts).
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"bpred/internal/atomicfile"
	"bpred/internal/core"
	"bpred/internal/sim"
)

var magic = [4]byte{'B', 'P', 'C', '1'}

// formatVersion is the current file format version. Version 2 added
// the tagged-table alias extension fields; version-1 files remain
// readable (the extension fields decode as zero).
const formatVersion = 2

// minReadVersion is the oldest format version Read still accepts.
const minReadVersion = 1

// maxEntries bounds the entry count a reader will believe; real
// sweeps are a few hundred cells, so anything near this is a forged
// or corrupt header rather than data.
const maxEntries = 1 << 20

// maxStringLen bounds fingerprint and name lengths.
const maxStringLen = 1 << 12

// ErrBadMagic indicates the stream is not a BPC1 checkpoint.
var ErrBadMagic = errors.New("checkpoint: bad magic; not a BPC1 checkpoint")

// ErrVersion indicates a checkpoint written by an incompatible format
// version.
var ErrVersion = errors.New("checkpoint: unsupported format version")

// ErrMismatch indicates an existing checkpoint file belongs to a
// different trace or warmup setting than the run trying to use it.
var ErrMismatch = errors.New("checkpoint: file does not match this trace/options")

// File is the decoded content of a checkpoint.
type File struct {
	// TraceDigest binds the cache to one trace's content.
	TraceDigest [32]byte
	// Warmup is the sim.Options.Warmup the cached results used;
	// results scored with a different warmup are not comparable.
	Warmup uint64
	// Entries maps configuration fingerprints to their metrics.
	Entries map[string]sim.Metrics
}

// Write serializes f. Entries are emitted in sorted fingerprint order
// so equal files produce equal bytes.
func Write(w io.Writer, f *File) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return fmt.Errorf("checkpoint: writing magic: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	writeString := func(s string) error {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeUvarint(formatVersion); err != nil {
		return fmt.Errorf("checkpoint: writing version: %w", err)
	}
	if _, err := bw.Write(f.TraceDigest[:]); err != nil {
		return fmt.Errorf("checkpoint: writing digest: %w", err)
	}
	if err := writeUvarint(f.Warmup); err != nil {
		return fmt.Errorf("checkpoint: writing warmup: %w", err)
	}
	if err := writeUvarint(uint64(len(f.Entries))); err != nil {
		return fmt.Errorf("checkpoint: writing count: %w", err)
	}
	fps := make([]string, 0, len(f.Entries))
	for fp := range f.Entries {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		m := f.Entries[fp]
		if err := writeString(fp); err != nil {
			return fmt.Errorf("checkpoint: writing fingerprint: %w", err)
		}
		if err := writeString(m.Name); err != nil {
			return fmt.Errorf("checkpoint: writing name: %w", err)
		}
		for _, v := range []uint64{
			m.Branches, m.Mispredicts,
			m.Alias.Accesses, m.Alias.Conflicts, m.Alias.AllOnes,
			m.Alias.Agreeing, m.Alias.Destructive,
			m.Alias.TagAgree, m.Alias.TagDisagree, m.Alias.UsefulVictims,
			m.Alias.Overrides, m.Alias.OverrideCorrect,
		} {
			if err := writeUvarint(v); err != nil {
				return fmt.Errorf("checkpoint: writing entry %q: %w", fp, err)
			}
		}
		var fbits [8]byte
		binary.LittleEndian.PutUint64(fbits[:], math.Float64bits(m.FirstLevelMissRate))
		if _, err := bw.Write(fbits[:]); err != nil {
			return fmt.Errorf("checkpoint: writing entry %q: %w", fp, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("checkpoint: flushing: %w", err)
	}
	return nil
}

// Read parses a checkpoint stream. It validates magic, version, and
// structural sanity, and returns wrapped errors — never panics — on
// truncated or corrupt input.
func Read(r io.Reader) (*File, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading version: %w", err)
	}
	if version < minReadVersion || version > formatVersion {
		return nil, fmt.Errorf("%w: %d (want %d..%d)", ErrVersion, version, minReadVersion, formatVersion)
	}
	f := &File{Entries: make(map[string]sim.Metrics)}
	if _, err := io.ReadFull(br, f.TraceDigest[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading digest: %w", eofToUnexpected(err))
	}
	if f.Warmup, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("checkpoint: reading warmup: %w", eofToUnexpected(err))
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading count: %w", eofToUnexpected(err))
	}
	if count > maxEntries {
		return nil, fmt.Errorf("checkpoint: unreasonable entry count %d", count)
	}
	readString := func(what string) (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", fmt.Errorf("checkpoint: reading %s length: %w", what, eofToUnexpected(err))
		}
		if n > maxStringLen {
			return "", fmt.Errorf("checkpoint: unreasonable %s length %d", what, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", fmt.Errorf("checkpoint: reading %s: %w", what, eofToUnexpected(err))
		}
		return string(buf), nil
	}
	for i := uint64(0); i < count; i++ {
		fp, err := readString("fingerprint")
		if err != nil {
			return nil, fmt.Errorf("checkpoint: entry %d: %w", i, err)
		}
		var e sim.Metrics
		if e.Name, err = readString("name"); err != nil {
			return nil, fmt.Errorf("checkpoint: entry %d: %w", i, err)
		}
		dsts := []*uint64{
			&e.Branches, &e.Mispredicts,
			&e.Alias.Accesses, &e.Alias.Conflicts, &e.Alias.AllOnes,
			&e.Alias.Agreeing, &e.Alias.Destructive,
			&e.Alias.TagAgree, &e.Alias.TagDisagree, &e.Alias.UsefulVictims,
			&e.Alias.Overrides, &e.Alias.OverrideCorrect,
		}
		if version < 2 {
			dsts = dsts[:7] // v1 predates the tagged-table extension
		}
		for _, dst := range dsts {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: entry %d (%q): %w", i, fp, eofToUnexpected(err))
			}
			*dst = v
		}
		var fbits [8]byte
		if _, err := io.ReadFull(br, fbits[:]); err != nil {
			return nil, fmt.Errorf("checkpoint: entry %d (%q): %w", i, fp, eofToUnexpected(err))
		}
		e.FirstLevelMissRate = math.Float64frombits(binary.LittleEndian.Uint64(fbits[:]))
		if _, dup := f.Entries[fp]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate fingerprint %q", fp)
		}
		f.Entries[fp] = e
	}
	return f, nil
}

// eofToUnexpected maps a bare EOF inside a structure to
// io.ErrUnexpectedEOF so truncation is always distinguishable from a
// clean end of stream.
func eofToUnexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Fingerprint returns the cache key for one configuration. The trace
// and warmup are file-level bindings, so the key only needs the
// configuration identity.
func Fingerprint(c core.Config) string { return c.Fingerprint() }

// PathFor returns the canonical checkpoint file path for a (trace
// digest, warmup) binding under dir. Every front-end that checkpoints
// by directory — bpsweep -resume, the bpserved sweep service — derives
// paths through this one function, so a cache written by one is found
// (and its entries replayed) by the others. Warmup is part of the
// address because it is part of the store's identity: a file holds
// results for exactly one warmup, and addressing by digest alone would
// make sweeps with different warmups over one trace collide on (and
// refuse to open) each other's files.
func PathFor(dir string, digest [32]byte, warmup uint64) string {
	return filepath.Join(dir, fmt.Sprintf("sweep-%x-w%d.bpc", digest[:12], warmup))
}

// Store is a concurrency-safe result cache bound to one (trace,
// warmup) identity, optionally backed by a file. The zero-value-ish
// NewMemory form is file-less (Flush is a no-op); Open loads or
// creates the backing file and Flush atomically rewrites it.
//
// All methods of one Store may be called concurrently (the server's
// worker pool adds, looks up, and flushes the same entry from many
// goroutines — checkpoint_concurrent_test.go stresses this under
// -race). Two Stores opened on the same path do NOT merge: Flush
// rewrites the whole file, so the last flusher wins and the other's
// unflushed entries are lost from disk. Concurrent writers must share
// a single Store per path, which is what bpserved's per-(trace,
// warmup) store registry guarantees.
type Store struct {
	mu    sync.Mutex
	path  string // "" = memory-only; immutable after Open
	file  File   //bplint:guardedby mu
	dirty bool   //bplint:guardedby mu
}

// NewMemory returns an unbacked store for the given binding.
func NewMemory(traceDigest [32]byte, warmup uint64) *Store {
	return &Store{file: File{
		TraceDigest: traceDigest,
		Warmup:      warmup,
		Entries:     make(map[string]sim.Metrics),
	}}
}

// Open returns a store backed by path. A missing file yields a fresh
// store; an existing file is loaded and must carry the same trace
// digest and warmup (ErrMismatch otherwise — silently mixing results
// from a different trace would corrupt a resumed surface).
//
//bplint:exclusive the store is not shared until Open returns
func Open(path string, traceDigest [32]byte, warmup uint64) (*Store, error) {
	s := NewMemory(traceDigest, warmup)
	s.path = path
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	loaded, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: loading %s: %w", path, err)
	}
	if loaded.TraceDigest != traceDigest {
		return nil, fmt.Errorf("%w: %s was written for a different trace", ErrMismatch, path)
	}
	if loaded.Warmup != warmup {
		return nil, fmt.Errorf("%w: %s used warmup %d, this run uses %d",
			ErrMismatch, path, loaded.Warmup, warmup)
	}
	s.file = *loaded
	return s, nil
}

// Path returns the backing file path ("" for memory-only stores).
func (s *Store) Path() string { return s.path }

// Len returns the number of cached entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.file.Entries)
}

// Lookup returns the cached metrics for a fingerprint.
func (s *Store) Lookup(fp string) (sim.Metrics, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.file.Entries[fp]
	return m, ok
}

// Add caches one result. Re-adding an existing fingerprint overwrites
// it (deterministic simulation makes the values identical anyway).
func (s *Store) Add(fp string, m sim.Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.file.Entries[fp] = m
	s.dirty = true
}

// Flush atomically persists the store to its backing file
// (atomicfile: a temp file in the same directory, then rename). It is
// a no-op for memory-only or unmodified stores, so callers can flush
// at every tier boundary without rewriting an unchanged file.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path == "" || !s.dirty {
		return nil
	}
	file := &s.file
	if err := atomicfile.Write(s.path, func(f *os.File) error { return Write(f, file) }); err != nil {
		return fmt.Errorf("checkpoint: flushing %s: %w", s.path, err)
	}
	s.dirty = false
	return nil
}
