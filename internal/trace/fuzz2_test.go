package trace

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"
)

// FuzzReader2 checks the BPT2 block decoder never panics or loops on
// arbitrary input, and that NextBatch at a fuzz-chosen buffer length
// — shorter than a block, or a window of several — yields exactly the
// records and the error that Next does. Seeds cover valid multi-block
// streams at block lengths 1, 3, 64 and the default, header
// fragments, truncations landing inside a block, and corruptions whose
// errors a window must report in stream order.
func FuzzReader2(f *testing.F) {
	synth := synthBranches(300, 17)
	valid := encode2(f, &Trace{Name: "seed2", Instructions: 42, Branches: synth}, 64)
	f.Add(valid, uint16(64))
	f.Add(valid[:len(valid)/2], uint16(200))
	f.Add(valid[:40], uint16(1))
	f.Add(encode2(f, &Trace{Name: "seed2", Instructions: 42, Branches: synth[:40]}, 1), uint16(7))
	f.Add(encode2(f, &Trace{Name: "seed2", Instructions: 42, Branches: synth[:100]}, 3), uint16(10))
	f.Add([]byte("BPT2"), uint16(8192))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("BPT2\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"), uint16(2))
	// Buffers one record short of a block, and of one, two and three
	// blocks, put the damaged block at a window's start and inside one.
	for _, seed := range corruptBPT2(f, valid) {
		for _, n := range []uint16{62, 63, 127, 191} {
			f.Add(seed, n)
		}
	}
	if paths, err := filepath.Glob(filepath.Join("..", "refmodel", "testdata", "*.bpt")); err == nil {
		for _, p := range paths {
			src, err := ReadFile(p)
			if err != nil {
				continue
			}
			f.Add(encode2(f, src, 0), uint16(8191))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		checkBatchMatchesNext(t, data, 1+int(n)%(1<<13))
	})
}

// corruptBPT2 derives damaged copies of a valid multi-block stream
// whose first error lies in its third block: a base PC that breaks
// the delta chain, the same break with the stream cut inside that
// block's header (a block-at-a-time decode reports the chain break,
// not the short read), a column byte flipped (checksum mismatch), and
// a cut inside the columns.
func corruptBPT2(tb testing.TB, valid []byte) [][]byte {
	idx, err := ReadIndex(bytes.NewReader(valid), int64(len(valid)))
	if err != nil || len(idx.Blocks) < 4 {
		tb.Fatalf("seed stream needs at least 4 indexed blocks: %v", err)
	}
	blk := idx.Blocks[2]
	_, recsLen := binary.Uvarint(valid[blk.Offset:])
	base := blk.Offset + int64(recsLen) // first byte of the base PC
	_, baseLen := binary.Uvarint(valid[base:])
	chain := bytes.Clone(valid)
	chain[base] ^= 1
	flip := bytes.Clone(valid)
	flip[blk.Offset+blk.Size-1] ^= 0x40
	return [][]byte{
		chain,
		chain[:base+int64(baseLen)+1],
		flip,
		valid[:blk.Offset+blk.Size/2],
	}
}

// FuzzIndex2 checks the footer-index parser on arbitrary bytes: it
// must reject or parse, never panic or over-allocate.
func FuzzIndex2(f *testing.F) {
	tr := &Trace{Name: "idx", Instructions: 1, Branches: synthBranches(200, 9)}
	var buf bytes.Buffer
	w, err := NewWriter2(&buf, tr.Name, tr.Instructions, uint64(tr.Len()), 32)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range tr.Branches {
		if err := w.WriteBranch(b); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("BPI2\x00\x00\x00\x00\x00\x09\x00\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		if idx.Start < 0 || idx.End > int64(len(data)) {
			t.Fatalf("index offsets [%d,%d) escape the %d-byte file", idx.Start, idx.End, len(data))
		}
	})
}

// FuzzRoundTrip2 checks arbitrary branch content and block geometry
// written by the BPT2 encoder decode to identical records.
func FuzzRoundTrip2(f *testing.F) {
	f.Add(uint64(0x1000), uint64(0x1100), true, uint64(0x1008), uint64(0x0F00), false, 2)
	f.Add(uint64(0), uint64(0), false, ^uint64(0), uint64(1), true, 1)
	f.Fuzz(func(t *testing.T, pc1, tgt1 uint64, tk1 bool, pc2, tgt2 uint64, tk2 bool, blockLen int) {
		if blockLen < 1 || blockLen > maxBlockLen {
			blockLen = 1 + (blockLen&0x7fffffff)%maxBlockLen
		}
		in := []Branch{
			{PC: pc1, Target: tgt1, Taken: tk1},
			{PC: pc2, Target: tgt2, Taken: tk2},
			{PC: pc1 ^ pc2, Target: tgt1 ^ tgt2, Taken: tk1 != tk2},
		}
		var buf bytes.Buffer
		w, err := NewWriter2(&buf, "fuzz2", 7, uint64(len(in)), blockLen)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range in {
			if err := w.WriteBranch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range in {
			got, ok := r.Next()
			if !ok {
				t.Fatalf("record %d missing: %v", i, r.Err())
			}
			if got != want {
				t.Fatalf("record %d: %+v != %+v", i, got, want)
			}
		}
		if _, ok := r.Next(); ok || r.Err() != nil {
			t.Fatalf("stream did not end cleanly: %v", r.Err())
		}
	})
}
