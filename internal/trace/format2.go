package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The on-disk trace format, version 2 — columnar and block-oriented,
// so a reader decodes a window of small, independent blocks straight
// from the file instead of materializing the whole trace:
//
//	magic    [4]byte  "BPT2"
//	nameLen  uvarint  followed by nameLen bytes of UTF-8 name
//	instrs   uvarint  represented dynamic instruction count
//	count    uvarint  total number of branch records
//	blockLen uvarint  maximum records per block (1..maxBlockLen)
//	blocks, until count records are encoded:
//	  recs    uvarint  records in this block (1..blockLen)
//	  prevPC  uvarint  PC of the record preceding the block (0 first);
//	                   seeds the delta chain so blocks decode
//	                   standalone, which is what makes the index-driven
//	                   seek path possible
//	  pcLen   uvarint  byte length of the PC column
//	  tgtLen  uvarint  byte length of the target column
//	  crc     uint32le IEEE CRC-32 of pcCol ++ tgtCol ++ takenCol
//	  pcCol   recs zigzag varints: delta from previous record's PC
//	  tgtCol  recs zigzag varints: Target - PC
//	  takenCol ceil(recs/8) bytes: outcome bits, LSB-first
//	index (footer, after the last block):
//	  imagic  [4]byte  "BPI2"
//	  payload nblocks uvarint, then per block: size uvarint (encoded
//	          block bytes including its header), recs uvarint
//	  crc     uint32le IEEE CRC-32 of the payload
//	  isize   uint32le bytes from imagic through crc — the trailer a
//	          reader uses to find the index from the end of the file
//
// Splitting the record stream into same-kind columns groups the
// small, similarly-distributed values (PC deltas cluster near zero,
// outcomes are single bits), and bit-packing the taken column drops
// the per-record flags byte BPT1 pays. Block file offsets and
// branch-count offsets are not stored; both fall out of prefix sums
// over the index entries, with the first block starting right after
// the file header.

var (
	magic2      = [4]byte{'B', 'P', 'T', '2'}
	indexMagic2 = [4]byte{'B', 'P', 'I', '2'}
)

const (
	// maxBlockLen bounds a block's record count. A block's decoded
	// form (24 B/record) and its worst-case encoded columns
	// (~21 B/record) both stay near a megabyte even under a hostile
	// header, so nothing allocates unboundedly.
	maxBlockLen = 1 << 16
	// DefaultBlockLen is the writer's default records-per-block. The
	// simulator's default 8192-record chunk holds 8 such blocks, which
	// NextBatch decodes in one call.
	DefaultBlockLen = 1024
)

// Writer2 streams a trace to an io.Writer in BPT2 form. The caller
// promises the record count up front (it sits in the header); Close
// verifies the promise and appends the block index.
type Writer2 struct {
	w        *bufio.Writer
	count    uint64 // promised record count
	wrote    uint64
	blockLen int

	// Current block under construction.
	recs     int
	startPC  uint64 // PC preceding the block's first record
	prevPC   uint64
	pcCol    []byte
	tgtCol   []byte
	takenCol []byte

	index []indexEntry
}

type indexEntry struct {
	size uint64 // encoded block bytes, header included
	recs uint64
}

// NewWriter2 writes the BPT2 header and returns a writer expecting
// exactly count branch records. blockLen 0 selects DefaultBlockLen.
func NewWriter2(w io.Writer, name string, instructions, count uint64, blockLen int) (*Writer2, error) {
	if blockLen == 0 {
		blockLen = DefaultBlockLen
	}
	if blockLen < 1 || blockLen > maxBlockLen {
		return nil, fmt.Errorf("trace: block length %d out of range [1,%d]", blockLen, maxBlockLen)
	}
	if uint64(len(name)) > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds cap %d", len(name), maxNameLen)
	}
	if count > maxRecordCount {
		return nil, fmt.Errorf("trace: record count %d exceeds cap %d", count, maxRecordCount)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic2[:]); err != nil {
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
	if err := writeUvarint(uint64(blockLen)); err != nil {
		return nil, fmt.Errorf("trace: writing block length: %w", err)
	}
	return &Writer2{
		w:        bw,
		count:    count,
		blockLen: blockLen,
		pcCol:    make([]byte, 0, blockLen*5),
		tgtCol:   make([]byte, 0, blockLen*5),
		takenCol: make([]byte, 0, (blockLen+7)/8),
	}, nil
}

// WriteBranch appends one record, flushing a block whenever blockLen
// records have accumulated. It returns an error if more records are
// written than the header promised.
func (w *Writer2) WriteBranch(b Branch) error {
	return w.WriteBatch([]Branch{b})
}

// WriteBatch appends records, encoding each block's run of them in
// one loop and flushing every block that fills. It writes nothing and
// returns an error if the records would overrun the promised count.
func (w *Writer2) WriteBatch(bs []Branch) error {
	if uint64(len(bs)) > w.count-w.wrote {
		return fmt.Errorf("trace: record %d exceeds promised count %d", w.count+1, w.count)
	}
	for len(bs) > 0 {
		run := bs[:min(len(bs), w.blockLen-w.recs)]
		bs = bs[len(run):]
		pcCol, tgtCol, takenCol := w.pcCol, w.tgtCol, w.takenCol
		prev, i := w.prevPC, w.recs
		for _, b := range run {
			pcCol = binary.AppendVarint(pcCol, int64(b.PC-prev))
			tgtCol = binary.AppendVarint(tgtCol, int64(b.Target-b.PC))
			if i%8 == 0 {
				takenCol = append(takenCol, 0)
			}
			if b.Taken {
				takenCol[i/8] |= 1 << (i % 8)
			}
			prev = b.PC
			i++
		}
		w.pcCol, w.tgtCol, w.takenCol = pcCol, tgtCol, takenCol
		w.prevPC, w.recs = prev, i
		w.wrote += uint64(len(run))
		if w.recs == w.blockLen {
			if err := w.flushBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushBlock writes the accumulated block and resets the columns.
func (w *Writer2) flushBlock() error {
	crc := crc32.NewIEEE()
	crc.Write(w.pcCol)
	crc.Write(w.tgtCol)
	crc.Write(w.takenCol)

	var hdr [4*binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(w.recs))
	n += binary.PutUvarint(hdr[n:], w.startPC)
	n += binary.PutUvarint(hdr[n:], uint64(len(w.pcCol)))
	n += binary.PutUvarint(hdr[n:], uint64(len(w.tgtCol)))
	binary.LittleEndian.PutUint32(hdr[n:], crc.Sum32())
	n += 4
	if _, err := w.w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("trace: writing block header: %w", err)
	}
	for _, col := range [][]byte{w.pcCol, w.tgtCol, w.takenCol} {
		if _, err := w.w.Write(col); err != nil {
			return fmt.Errorf("trace: writing block column: %w", err)
		}
	}
	w.index = append(w.index, indexEntry{
		size: uint64(n) + uint64(len(w.pcCol)) + uint64(len(w.tgtCol)) + uint64(len(w.takenCol)),
		recs: uint64(w.recs),
	})
	w.recs = 0
	w.startPC = w.prevPC
	w.pcCol = w.pcCol[:0]
	w.tgtCol = w.tgtCol[:0]
	w.takenCol = w.takenCol[:0]
	return nil
}

// Close flushes the final partial block, verifies the promised record
// count was met, and appends the footer index.
func (w *Writer2) Close() error {
	if w.wrote != w.count {
		return fmt.Errorf("trace: wrote %d records, header promised %d", w.wrote, w.count)
	}
	if w.recs > 0 {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	payload := make([]byte, 0, 2*binary.MaxVarintLen64*(len(w.index)+1))
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(w.index)))
	payload = append(payload, buf[:n]...)
	for _, e := range w.index {
		n = binary.PutUvarint(buf[:], e.size)
		payload = append(payload, buf[:n]...)
		n = binary.PutUvarint(buf[:], e.recs)
		payload = append(payload, buf[:n]...)
	}
	if _, err := w.w.Write(indexMagic2[:]); err != nil {
		return fmt.Errorf("trace: writing index magic: %w", err)
	}
	if _, err := w.w.Write(payload); err != nil {
		return fmt.Errorf("trace: writing index: %w", err)
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[0:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(tail[4:], uint32(4+len(payload)+4))
	if _, err := w.w.Write(tail[:]); err != nil {
		return fmt.Errorf("trace: writing index trailer: %w", err)
	}
	return w.w.Flush()
}

// reader2 streams a BPT2 trace. It implements Reader. Every block
// goes through the same two steps, readBlock then decodeBlock, in
// stream order, into whatever buffer the caller gives: NextBatch
// decodes a window of whole blocks straight into the caller's buffer,
// and Next and buffers shorter than a block decode one block into
// r.block. Beyond the caller's buffer, at most blockLen records are
// ever resident.
type reader2 struct {
	br           *bufio.Reader
	name         string
	instructions uint64
	count        uint64
	blockLen     uint64
	read         uint64 // records handed out so far
	prevPC       uint64 // last decoded PC (delta-chain state)
	chained      bool   // prevPC is authoritative (sequential reads)
	err          error

	block   []Branch // decoded block behind Next and short buffers
	pos     int      // cursor within block
	payload []byte   // raw column scratch, reused across blocks

	index *Index // lazily loaded by FileReader.Index
}

// newReader2 parses the BPT2 header (including the already-sniffed
// magic) and returns a reader positioned at the first record.
func newReader2(br *bufio.Reader) (*reader2, error) {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic2 {
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
	blockLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading block length: %w", err)
	}
	if blockLen < 1 || blockLen > maxBlockLen {
		return nil, fmt.Errorf("trace: block length %d out of range [1,%d]", blockLen, maxBlockLen)
	}
	return &reader2{
		br:           br,
		name:         string(nameBuf),
		instructions: instrs,
		count:        count,
		blockLen:     blockLen,
		chained:      true,
	}, nil
}

func (r *reader2) Name() string         { return r.name }
func (r *reader2) Instructions() uint64 { return r.instructions }
func (r *reader2) Count() uint64        { return r.count }
func (r *reader2) Err() error           { return r.err }

// Version reports the on-disk format version, 2.
func (r *reader2) Version() int { return 2 }

// rewind repoints the reader at a new position in the byte stream
// whose next block's first record is record first. The delta chain
// restarts from the block header's prevPC (chained=false) because the
// preceding bytes were skipped, not decoded.
func (r *reader2) rewind(br *bufio.Reader, first uint64) {
	r.br = br
	r.read = first
	r.block = r.block[:0]
	r.pos = 0
	r.err = nil
	r.chained = false
}

// blockHeader is a block's header, as readBlock parsed it.
type blockHeader struct {
	recs, startPC, pcLen, tgtLen uint64
	crc                          uint32
}

// readBlock is the first of the two steps every block goes through:
// it parses the header of the block whose first record is record at,
// runs every bound check, and reads the encoded columns into
// r.payload. It returns false at end of trace or on error (recorded
// in r.err).
func (r *reader2) readBlock(at uint64) (blockHeader, bool) {
	var h blockHeader
	if r.err != nil || at >= r.count {
		return h, false
	}
	var err error
	if h.recs, err = binary.ReadUvarint(r.br); err != nil {
		r.err = fmt.Errorf("trace: reading block header at record %d: %w", at, err)
		return h, false
	}
	if h.recs < 1 || h.recs > r.blockLen {
		r.err = fmt.Errorf("trace: block record count %d out of range [1,%d]", h.recs, r.blockLen)
		return h, false
	}
	if at+h.recs > r.count {
		r.err = fmt.Errorf("trace: block of %d records overruns promised count %d at record %d", h.recs, r.count, at)
		return h, false
	}
	if h.startPC, err = binary.ReadUvarint(r.br); err != nil {
		r.err = fmt.Errorf("trace: reading block base pc: %w", err)
		return h, false
	}
	if r.chained && h.startPC != r.prevPC {
		r.err = fmt.Errorf("trace: block base pc %#x breaks delta chain (want %#x) at record %d", h.startPC, r.prevPC, at)
		return h, false
	}
	if h.pcLen, err = binary.ReadUvarint(r.br); err != nil {
		r.err = fmt.Errorf("trace: reading pc column length: %w", err)
		return h, false
	}
	if h.tgtLen, err = binary.ReadUvarint(r.br); err != nil {
		r.err = fmt.Errorf("trace: reading target column length: %w", err)
		return h, false
	}
	// A varint is at most 10 bytes, so any honest column is bounded by
	// 10*recs; larger claims are lies and must not drive allocation.
	if h.pcLen > uint64(binary.MaxVarintLen64)*h.recs || h.tgtLen > uint64(binary.MaxVarintLen64)*h.recs {
		r.err = fmt.Errorf("trace: column lengths %d/%d unreasonable for %d records", h.pcLen, h.tgtLen, h.recs)
		return h, false
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r.br, crcBuf[:]); err != nil {
		r.err = fmt.Errorf("trace: reading block checksum: %w", err)
		return h, false
	}
	h.crc = binary.LittleEndian.Uint32(crcBuf[:])
	total := h.pcLen + h.tgtLen + (h.recs+7)/8
	if uint64(cap(r.payload)) < total {
		r.payload = make([]byte, total)
	}
	r.payload = r.payload[:total]
	if _, err := io.ReadFull(r.br, r.payload); err != nil {
		r.err = fmt.Errorf("trace: reading block columns at record %d: %w", at, err)
		return h, false
	}
	return h, true
}

// decodeBlock is the second step: it checks the CRC of the block
// readBlock just read and decodes its columns into dst[:h.recs],
// extending the delta chain. It returns false on error (recorded in
// r.err).
func (r *reader2) decodeBlock(h blockHeader, at uint64, dst []Branch) bool {
	if got := crc32.ChecksumIEEE(r.payload); got != h.crc {
		r.err = fmt.Errorf("trace: block checksum mismatch at record %d: got %08x want %08x", at, got, h.crc)
		return false
	}
	pcCol := r.payload[:h.pcLen]
	tgtCol := r.payload[h.pcLen : h.pcLen+h.tgtLen]
	takenCol := r.payload[h.pcLen+h.tgtLen:]
	pc := h.startPC
	pi, ti := 0, 0
	for i := range dst[:h.recs] {
		dPC, n := varint12(pcCol, pi)
		if n == 0 {
			if dPC, n = binary.Varint(pcCol[pi:]); n <= 0 {
				r.err = fmt.Errorf("trace: corrupt pc column at record %d", at+uint64(i))
				return false
			}
		}
		pi += n
		dTgt, n := varint12(tgtCol, ti)
		if n == 0 {
			if dTgt, n = binary.Varint(tgtCol[ti:]); n <= 0 {
				r.err = fmt.Errorf("trace: corrupt target column at record %d", at+uint64(i))
				return false
			}
		}
		ti += n
		pc += uint64(dPC)
		dst[i] = Branch{PC: pc, Target: pc + uint64(dTgt), Taken: takenCol[uint(i)/8]&(1<<(uint(i)%8)) != 0}
	}
	if pi != len(pcCol) || ti != len(tgtCol) {
		r.err = fmt.Errorf("trace: block columns have %d/%d trailing bytes at record %d",
			len(pcCol)-pi, len(tgtCol)-ti, at)
		return false
	}
	r.prevPC = pc
	r.chained = true
	return true
}

// nextBlocks decodes the next block into buf, which must hold it
// (blockLen records, or every record left if fewer), then more blocks
// while another surely fits, and returns how many records it decoded.
// Next gives it one block's room; a NextBatch buffer holding several
// blocks gets a window of them.
func (r *reader2) nextBlocks(buf []Branch) int {
	n := 0
	for {
		at := r.read + uint64(n)
		h, ok := r.readBlock(at)
		if !ok || !r.decodeBlock(h, at, buf[n:]) {
			return n
		}
		n += int(h.recs)
		if uint64(len(buf)-n) < r.blockLen {
			return n
		}
	}
}

// nextBlock decodes the next block into r.block. It returns false at
// end of trace or on error (recorded in r.err).
func (r *reader2) nextBlock() bool {
	need := min(r.blockLen, r.count-r.read)
	if uint64(cap(r.block)) < need {
		r.block = make([]Branch, need)
	}
	r.block = r.block[:r.nextBlocks(r.block[:need])]
	r.pos = 0
	return len(r.block) > 0
}

// Next returns the next record. After exhaustion or an error it
// returns ok=false; check Err to distinguish.
func (r *reader2) Next() (Branch, bool) {
	if r.pos >= len(r.block) {
		if !r.nextBlock() {
			return Branch{}, false
		}
	}
	b := r.block[r.pos]
	r.pos++
	r.read++
	return b, true
}

// NextBatch returns the next records. Once Next's current block is
// used up, a buf that holds at least one block receives a window of
// whole blocks, decoded straight into it: the simulator's default
// 8192-record chunk takes 8 default blocks per call. A shorter buf
// gets a zero-copy window into one decoded block, at most len(buf)
// records long, with buf itself untouched. Either result is valid
// until the following NextBatch call.
func (r *reader2) NextBatch(buf []Branch) []Branch {
	if len(buf) == 0 {
		return nil
	}
	if r.pos >= len(r.block) && uint64(len(buf)) >= r.blockLen {
		n := r.nextBlocks(buf)
		r.read += uint64(n)
		return buf[:n]
	}
	if r.pos >= len(r.block) {
		if !r.nextBlock() {
			return nil
		}
	}
	n := min(len(r.block)-r.pos, len(buf))
	out := r.block[r.pos : r.pos+n]
	r.pos += n
	r.read += uint64(n)
	return out
}

// Index describes a BPT2 file's block layout, reconstructed from the
// footer: per-block file offsets, sizes, and branch-count offsets.
type Index struct {
	// Blocks lists every block in file order.
	Blocks []BlockRef
	// Start is the file offset of the first block (just past the
	// header); End is the offset just past the last block (the index
	// magic).
	Start, End int64
}

// BlockRef locates one block.
type BlockRef struct {
	// Offset is the block's file offset; Size its encoded byte length.
	Offset, Size int64
	// FirstRecord is the branch-count offset of the block's first
	// record; Records is how many records the block holds.
	FirstRecord, Records uint64
}

// ReadIndex parses the footer index of a BPT2 file of the given size.
func ReadIndex(ra io.ReaderAt, size int64) (*Index, error) {
	var tail [4]byte
	if size < 8+4 {
		return nil, fmt.Errorf("trace: file too small (%d bytes) for a BPT2 index", size)
	}
	if _, err := ra.ReadAt(tail[:], size-4); err != nil {
		return nil, fmt.Errorf("trace: reading index trailer: %w", err)
	}
	isize := int64(binary.LittleEndian.Uint32(tail[:]))
	start := size - 4 - isize
	if isize < int64(len(indexMagic2))+1+4 || start < int64(len(magic2)) {
		return nil, fmt.Errorf("trace: implausible index size %d in %d-byte file", isize, size)
	}
	raw := make([]byte, isize)
	if _, err := ra.ReadAt(raw, start); err != nil {
		return nil, fmt.Errorf("trace: reading index: %w", err)
	}
	if [4]byte(raw[:4]) != indexMagic2 {
		return nil, fmt.Errorf("trace: bad index magic %q", raw[:4])
	}
	payload := raw[4 : isize-4]
	wantCRC := binary.LittleEndian.Uint32(raw[isize-4:])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("trace: index checksum mismatch: got %08x want %08x", got, wantCRC)
	}
	nblocks, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("trace: corrupt index block count")
	}
	// Every entry costs at least two payload bytes, so nblocks beyond
	// that bound is a lie; the check also caps the allocation below.
	if nblocks > uint64(len(payload))/2 {
		return nil, fmt.Errorf("trace: index promises %d blocks in %d payload bytes", nblocks, len(payload))
	}
	payload = payload[n:]
	idx := &Index{Blocks: make([]BlockRef, 0, nblocks), End: start}
	var totalSize int64
	var totalRecs uint64
	for i := uint64(0); i < nblocks; i++ {
		bsize, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("trace: corrupt index entry %d", i)
		}
		payload = payload[n:]
		brecs, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("trace: corrupt index entry %d", i)
		}
		payload = payload[n:]
		idx.Blocks = append(idx.Blocks, BlockRef{
			Size:        int64(bsize),
			Records:     brecs,
			FirstRecord: totalRecs,
		})
		totalSize += int64(bsize)
		totalRecs += brecs
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after index entries", len(payload))
	}
	idx.Start = start - totalSize
	if idx.Start < int64(len(magic2)) {
		return nil, fmt.Errorf("trace: index block sizes overrun the file header")
	}
	off := idx.Start
	for i := range idx.Blocks {
		idx.Blocks[i].Offset = off
		off += idx.Blocks[i].Size
	}
	return idx, nil
}

// WriteFile2 writes a whole trace to path in BPT2 form. blockLen 0
// selects DefaultBlockLen.
func WriteFile2(path string, t *Trace, blockLen int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: closing %s: %w", path, cerr)
		}
	}()
	w, err := NewWriter2(f, t.Name, t.Instructions, uint64(t.Len()), blockLen)
	if err != nil {
		return err
	}
	if err := w.WriteBatch(t.Branches); err != nil {
		return err
	}
	return w.Close()
}
