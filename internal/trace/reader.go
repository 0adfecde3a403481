package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Reader is the format-versioned trace decoder. Both on-disk formats
// (row-oriented BPT1 and columnar BPT2) satisfy it, so everything
// above this package — the simulator's streaming path, the service's
// ingest/transcode pipeline, cluster trace replication — consumes
// traces without knowing which version backs them.
//
// A Reader is a BatchSource: NextBatch yields chunks sized for the
// simulator's fast path, decoded into the caller's buffer. For BPT2 a
// buffer of at least one block receives a window of whole blocks; a
// shorter one gets a zero-copy slice of one decoded block. After
// exhaustion, Err distinguishes clean EOF (nil) from a decode error.
type Reader interface {
	BatchSource
	// Name returns the workload name from the header.
	Name() string
	// Instructions returns the represented dynamic instruction count.
	Instructions() uint64
	// Count returns the number of records the header promises.
	Count() uint64
	// Err returns the first decoding error encountered, or nil.
	Err() error
	// Version reports the on-disk format version (1 or 2).
	Version() int
}

// NewReader sniffs the stream's magic and returns a Reader for
// whichever format version it announces. Unknown magic yields
// ErrBadMagic.
func NewReader(r io.Reader) (Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	m, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	switch {
	case [4]byte(m) == magic:
		rd, err := newReader1(br)
		if err != nil {
			return nil, err
		}
		return rd, nil
	case [4]byte(m) == magic2:
		rd, err := newReader2(br)
		if err != nil {
			return nil, err
		}
		return rd, nil
	}
	return nil, ErrBadMagic
}

// FileReader is a Reader over an opened trace file. For BPT2 files it
// additionally supports index-driven random access via SeekBranch.
type FileReader struct {
	Reader
	f    *os.File
	path string
}

// OpenFile opens path and returns a streaming reader positioned at
// the first record. The caller owns Close.
func OpenFile(path string) (*FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	rd, err := NewReader(f)
	if err != nil {
		cerr := f.Close()
		if cerr != nil {
			return nil, fmt.Errorf("trace: %s: %w (and closing: %v)", path, err, cerr)
		}
		return nil, err
	}
	return &FileReader{Reader: rd, f: f, path: path}, nil
}

// Close releases the underlying file.
func (fr *FileReader) Close() error { return fr.f.Close() }

// SeekBranch repositions the reader so the next record returned is
// record n (0-based). Only BPT2 files support seeking — their footer
// index maps branch-count offsets to block offsets; BPT1 files
// return an error.
func (fr *FileReader) SeekBranch(n uint64) error {
	r2, ok := fr.Reader.(*reader2)
	if !ok {
		return fmt.Errorf("trace: %s: seeking requires a BPT2 trace (version %d)", fr.path, fr.Version())
	}
	if n > r2.count {
		return fmt.Errorf("trace: seek to record %d beyond count %d", n, r2.count)
	}
	idx, err := fr.Index()
	if err != nil {
		return err
	}
	// Find the block containing n: the last block whose first-record
	// offset is <= n. Seeking to count positions at EOF.
	bi := len(idx.Blocks) - 1
	for bi > 0 && idx.Blocks[bi].FirstRecord > n {
		bi--
	}
	var off int64
	var first uint64
	if len(idx.Blocks) == 0 || n >= r2.count {
		off, first = idx.End, r2.count
	} else {
		off, first = idx.Blocks[bi].Offset, idx.Blocks[bi].FirstRecord
	}
	if _, err := fr.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("trace: seeking %s: %w", fr.path, err)
	}
	r2.rewind(bufio.NewReaderSize(fr.f, 1<<16), first)
	// Discard records inside the block until the cursor lands on n.
	for r2.read < n {
		if _, ok := r2.Next(); !ok {
			if err := r2.Err(); err != nil {
				return err
			}
			return fmt.Errorf("trace: %s: block ended before record %d", fr.path, n)
		}
	}
	return nil
}

// Index reads and caches the BPT2 footer index. BPT1 files have no
// index and return an error.
func (fr *FileReader) Index() (*Index, error) {
	r2, ok := fr.Reader.(*reader2)
	if !ok {
		return nil, fmt.Errorf("trace: %s: no index in a version-%d trace", fr.path, fr.Version())
	}
	if r2.index != nil {
		return r2.index, nil
	}
	st, err := fr.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	idx, err := ReadIndex(fr.f, st.Size())
	if err != nil {
		return nil, err
	}
	r2.index = idx
	return idx, nil
}
