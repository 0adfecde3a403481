package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// Digest returns a SHA-256 content digest of the trace: its name,
// metadata, and every branch record. Two traces with the same digest
// drive a deterministic simulator to identical results, which is what
// lets the checkpoint layer (internal/checkpoint) key cached sweep
// cells by trace content instead of by file path or generation
// parameters.
//
// The digest covers the in-memory representation, not the BPT1 byte
// stream, so it is insensitive to on-disk encoding details and equally
// applicable to generated traces that never touch a file.
func (t *Trace) Digest() [sha256.Size]byte {
	d := NewDigestWriter(t.Name, t.Instructions, uint64(len(t.Branches)))
	d.WriteBatch(t.Branches)
	return d.Sum()
}

// digestRecord is a record's fixed-width form in the digest: PC and
// Target little-endian, then one outcome byte.
const digestRecord = 8 + 8 + 1

// DigestWriter computes the same content digest as Trace.Digest
// incrementally, so a streaming consumer (the service's upload path)
// can fingerprint a trace without ever materializing it. The record
// count is part of the hashed preamble and must be known up front —
// trace headers carry it — and the caller is responsible for feeding
// exactly that many records.
type DigestWriter struct {
	h   hash.Hash
	buf []byte
}

// NewDigestWriter starts a digest over the given trace metadata.
func NewDigestWriter(name string, instructions, count uint64) *DigestWriter {
	h := sha256.New()
	var hdr [8]byte
	h.Write([]byte("bpred-trace-digest-v1\x00"))
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(name)))
	h.Write(hdr[:])
	h.Write([]byte(name))
	binary.LittleEndian.PutUint64(hdr[:], instructions)
	h.Write(hdr[:])
	binary.LittleEndian.PutUint64(hdr[:], count)
	h.Write(hdr[:])
	// Buffering amortizes the hasher's call overhead over ~3800
	// records at a time.
	return &DigestWriter{h: h, buf: make([]byte, 0, digestRecord*3855)}
}

// WriteBatch folds records into the digest, encoding each one
// straight into the hash buffer.
func (d *DigestWriter) WriteBatch(bs []Branch) {
	for len(bs) > 0 {
		room := (cap(d.buf) - len(d.buf)) / digestRecord
		if room == 0 {
			d.h.Write(d.buf)
			d.buf = d.buf[:0]
			continue
		}
		k := min(room, len(bs))
		off := len(d.buf)
		d.buf = d.buf[:off+k*digestRecord]
		rec := d.buf[off:]
		for i := range bs[:k] {
			b := &bs[i]
			binary.LittleEndian.PutUint64(rec[0:8], b.PC)
			binary.LittleEndian.PutUint64(rec[8:16], b.Target)
			var taken byte
			if b.Taken {
				taken = 1
			}
			rec[16] = taken
			rec = rec[digestRecord:]
		}
		bs = bs[k:]
	}
}

// Sum returns the digest over everything written so far.
func (d *DigestWriter) Sum() [sha256.Size]byte {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
	var out [sha256.Size]byte
	d.h.Sum(out[:0])
	return out
}
