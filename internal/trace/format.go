package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// The on-disk trace format, version 1:
//
//	magic   [4]byte  "BPT1"
//	nameLen uvarint  followed by nameLen bytes of UTF-8 name
//	instrs  uvarint  represented dynamic instruction count
//	count   uvarint  number of branch records
//	records count times:
//	  flags  byte     bit0 = taken
//	  dPC    varint   zigzag delta from previous record's PC
//	  dTgt   varint   zigzag delta from this record's PC to Target
//
// Delta encoding keeps files small: consecutive branches are usually
// near each other in the text segment, and targets are near their
// branches, so most records fit in 4-6 bytes.

var magic = [4]byte{'B', 'P', 'T', '1'}

// Header sanity bounds. Header fields are attacker-controlled (traces
// are shared artifacts), so nothing allocates proportionally to a
// header value beyond these caps.
const (
	// maxNameLen bounds the workload name; real names are tens of
	// bytes.
	maxNameLen = 1 << 16
	// maxRecordCount bounds the promised record count. Records are at
	// least 3 bytes on disk, so no honest trace under 3 TB exceeds it,
	// and iteration bounded by a lie this size still terminates.
	maxRecordCount = 1 << 40
	// preallocRecords caps ReadFile's upfront allocation (24 MB of
	// Branch records); a header promising more only grows the slice as
	// records actually decode.
	preallocRecords = 1 << 20
)

// ErrBadMagic indicates the stream is not a branch trace in any
// format version this package knows (BPT1 or BPT2).
var ErrBadMagic = errors.New("trace: bad magic; not a BPT1/BPT2 trace")

// Writer streams a trace to an io.Writer.
type Writer struct {
	w      *bufio.Writer
	prevPC uint64
	wrote  uint64
	count  uint64 // promised record count
}

// NewWriter writes the header for a trace with the given metadata and
// returns a Writer expecting exactly count branch records.
func NewWriter(w io.Writer, name string, instructions, count uint64) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(len(name))); err != nil {
		return nil, fmt.Errorf("trace: writing name length: %w", err)
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, fmt.Errorf("trace: writing name: %w", err)
	}
	if err := writeUvarint(instructions); err != nil {
		return nil, fmt.Errorf("trace: writing instruction count: %w", err)
	}
	if err := writeUvarint(count); err != nil {
		return nil, fmt.Errorf("trace: writing record count: %w", err)
	}
	return &Writer{w: bw, count: count}, nil
}

// WriteBranch appends one record. It returns an error if more records
// are written than the header promised.
func (w *Writer) WriteBranch(b Branch) error {
	if w.wrote >= w.count {
		return fmt.Errorf("trace: record %d exceeds promised count %d", w.wrote+1, w.count)
	}
	var buf [1 + 2*binary.MaxVarintLen64]byte
	flags := byte(0)
	if b.Taken {
		flags = 1
	}
	buf[0] = flags
	n := 1
	n += binary.PutVarint(buf[n:], int64(b.PC-w.prevPC))
	n += binary.PutVarint(buf[n:], int64(b.Target-b.PC))
	if _, err := w.w.Write(buf[:n]); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	w.prevPC = b.PC
	w.wrote++
	return nil
}

// Close flushes buffered data and verifies the promised record count
// was met.
func (w *Writer) Close() error {
	if w.wrote != w.count {
		return fmt.Errorf("trace: wrote %d records, header promised %d", w.wrote, w.count)
	}
	return w.w.Flush()
}

// reader1 streams a BPT1 trace. It implements Reader.
type reader1 struct {
	r            *bufio.Reader
	name         string
	instructions uint64
	count        uint64
	read         uint64
	prevPC       uint64
	err          error
}

// newReader1 parses the BPT1 header (including the already-sniffed
// magic) and returns a reader positioned at the first record.
func newReader1(br *bufio.Reader) (*reader1, error) {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	instrs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading instruction count: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading record count: %w", err)
	}
	if count > maxRecordCount {
		return nil, fmt.Errorf("trace: unreasonable record count %d", count)
	}
	return &reader1{r: br, name: string(nameBuf), instructions: instrs, count: count}, nil
}

// Name returns the workload name from the header.
func (r *reader1) Name() string { return r.name }

// Instructions returns the represented instruction count.
func (r *reader1) Instructions() uint64 { return r.instructions }

// Count returns the number of records the header promises.
func (r *reader1) Count() uint64 { return r.count }

// Version reports the on-disk format version, 1.
func (r *reader1) Version() int { return 1 }

// maxRecord1 is the largest BPT1 record: the flags byte and two
// ten-byte varints.
const maxRecord1 = 1 + 2*binary.MaxVarintLen64

// NextBatch fills buf, decoding records straight out of the bufio
// buffer. Two cases go through Next instead: a record that starts in
// the last maxRecord1 buffered bytes (Next refills the buffer under
// it) and a record that does not decode cleanly (so its error reads
// exactly as a record-at-a-time decode reports it).
func (r *reader1) NextBatch(buf []Branch) []Branch {
	n := 0
	for n < len(buf) && r.err == nil && r.read < r.count {
		out := buf[n:]
		if left := r.count - r.read; left < uint64(len(out)) {
			out = out[:left]
		}
		win, _ := r.r.Peek(r.r.Buffered())
		i, k := 0, 0
		pc := r.prevPC
		for ; k < len(out) && len(win)-i >= maxRecord1; k++ {
			dPC, w1 := varint12(win, i+1)
			if w1 == 0 {
				if dPC, w1 = binary.Varint(win[i+1:]); w1 <= 0 {
					break
				}
			}
			dTgt, w2 := varint12(win, i+1+w1)
			if w2 == 0 {
				if dTgt, w2 = binary.Varint(win[i+1+w1:]); w2 <= 0 {
					break
				}
			}
			pc += uint64(dPC)
			out[k] = Branch{PC: pc, Target: pc + uint64(dTgt), Taken: win[i]&1 != 0}
			i += 1 + w1 + w2
		}
		r.r.Discard(i) // within the buffered bytes, so it cannot fail
		r.prevPC = pc
		r.read += uint64(k)
		n += k
		if k == len(out) {
			continue
		}
		b, ok := r.Next()
		if !ok {
			break
		}
		buf[n] = b
		n++
	}
	return buf[:n]
}

// varint12 decodes a one- or two-byte zigzag varint at buf[i:], the
// bulk of PC deltas and target offsets, without branching on which
// of the two it is. It returns the value and its width, or width 0
// when the value is longer or buf ends inside the next two bytes; the
// caller then falls back to binary.Varint.
func varint12(buf []byte, i int) (int64, int) {
	if i+1 >= len(buf) {
		return 0, 0
	}
	b0, b1 := buf[i], buf[i+1]
	if b0 >= 0x80 && b1 >= 0x80 {
		return 0, 0
	}
	two := uint64(b0 >> 7)
	u := uint64(b0&0x7f) | uint64(b1)<<7&-two
	return int64(u>>1) ^ -int64(u&1), 1 + int(two)
}

// Next returns the next record. After exhaustion or an error it
// returns ok=false; check Err to distinguish.
func (r *reader1) Next() (Branch, bool) {
	if r.err != nil || r.read >= r.count {
		return Branch{}, false
	}
	flags, err := r.r.ReadByte()
	if err != nil {
		r.err = fmt.Errorf("trace: reading record %d flags: %w", r.read, err)
		return Branch{}, false
	}
	dPC, err := binary.ReadVarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("trace: reading record %d pc: %w", r.read, err)
		return Branch{}, false
	}
	dTgt, err := binary.ReadVarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("trace: reading record %d target: %w", r.read, err)
		return Branch{}, false
	}
	pc := r.prevPC + uint64(dPC)
	r.prevPC = pc
	r.read++
	return Branch{PC: pc, Target: pc + uint64(dTgt), Taken: flags&1 != 0}, true
}

// Err returns the first decoding error encountered, or nil.
func (r *reader1) Err() error { return r.err }

// WriteFile writes a whole trace to path.
func WriteFile(path string, t *Trace) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: closing %s: %w", path, cerr)
		}
	}()
	w, err := NewWriter(f, t.Name, t.Instructions, uint64(t.Len()))
	if err != nil {
		return err
	}
	for _, b := range t.Branches {
		if err := w.WriteBranch(b); err != nil {
			return err
		}
	}
	return w.Close()
}

// ReadFile loads a whole trace from path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return t, nil
}

// Read decodes a whole trace, in either format, from r. The header's
// record count only sizes the first allocation up to preallocRecords,
// so a header that lies about its length costs at most that much
// before the stream runs dry and Read reports the truncation.
func Read(r io.Reader) (*Trace, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{
		Name:         rd.Name(),
		Instructions: rd.Instructions(),
		Branches:     make([]Branch, 0, min(rd.Count(), preallocRecords)),
	}
	buf := make([]Branch, 1<<13)
	for {
		batch := rd.NextBatch(buf)
		if len(batch) == 0 {
			break
		}
		t.Branches = append(t.Branches, batch...)
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if uint64(t.Len()) != rd.Count() {
		return nil, fmt.Errorf("trace: truncated: %d of %d records", t.Len(), rd.Count())
	}
	return t, nil
}
