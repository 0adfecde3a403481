package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

func digestTrace() *Trace {
	tr := &Trace{Name: "digest-sample", Instructions: 100}
	tr.Append(Branch{PC: 0x1000, Target: 0x1100, Taken: true})
	tr.Append(Branch{PC: 0x1008, Target: 0x0F00, Taken: false})
	tr.Append(Branch{PC: 0x1010, Target: 0x1030, Taken: true})
	return tr
}

func TestDigestStable(t *testing.T) {
	a := digestTrace().Digest()
	b := digestTrace().Digest()
	if a != b {
		t.Error("equal traces produced different digests")
	}
}

// TestDigestSensitivity flips each field the digest claims to cover
// and requires the digest to move.
func TestDigestSensitivity(t *testing.T) {
	base := digestTrace().Digest()

	mutations := map[string]func(*Trace){
		"name":         func(tr *Trace) { tr.Name = "other" },
		"instructions": func(tr *Trace) { tr.Instructions++ },
		"branch pc":    func(tr *Trace) { tr.Branches[1].PC ^= 4 },
		"branch target": func(tr *Trace) {
			tr.Branches[2].Target ^= 8
		},
		"branch taken": func(tr *Trace) { tr.Branches[0].Taken = !tr.Branches[0].Taken },
		"append": func(tr *Trace) {
			tr.Append(Branch{PC: 0x2000, Target: 0x2100, Taken: false})
		},
		"truncate": func(tr *Trace) { tr.Branches = tr.Branches[:len(tr.Branches)-1] },
	}
	for name, mutate := range mutations {
		tr := digestTrace()
		mutate(tr)
		if tr.Digest() == base {
			t.Errorf("mutating %s left the digest unchanged", name)
		}
	}
}

// TestDigestFieldBoundaries guards against concatenation ambiguity:
// moving bytes between length-prefixed fields must change the digest.
func TestDigestFieldBoundaries(t *testing.T) {
	a := &Trace{Name: "ab", Instructions: 1}
	b := &Trace{Name: "a", Instructions: 1}
	if a.Digest() == b.Digest() {
		t.Error("name boundary not covered by the digest")
	}
}

// TestDigestLargeTraceBuffered crosses the internal hashing buffer
// boundary (~3855 records) and checks the buffered path agrees with
// itself and remains order-sensitive.
func TestDigestLargeTraceBuffered(t *testing.T) {
	const n = 10_000
	mk := func() *Trace {
		tr := &Trace{Name: "big", Instructions: n}
		for i := 0; i < n; i++ {
			tr.Append(Branch{PC: uint64(i) << 2, Target: uint64(i+1) << 2, Taken: i%3 == 0})
		}
		return tr
	}
	if mk().Digest() != mk().Digest() {
		t.Error("large-trace digest unstable")
	}
	swapped := mk()
	swapped.Branches[0], swapped.Branches[n-1] = swapped.Branches[n-1], swapped.Branches[0]
	if swapped.Digest() == mk().Digest() {
		t.Error("digest insensitive to record order")
	}
}

// TestCorpusPinnedBytes pins, for each checked-in corpus trace, the
// content digest and the SHA-256 of its canonical BPT2 encoding as
// literals. Round trips and self-comparisons still pass when the
// writer and reader, or the digest and its own record encoding,
// change together; these literals do not, and every stored
// <digest>.bpt2 file and checkpoint key depends on them.
func TestCorpusPinnedBytes(t *testing.T) {
	pins := map[string]struct{ digest, bpt2 string }{
		"allones-loop.bpt": {
			"686a6e73e1800b626d55244fd6287e90d9d4e2715e1c113389c9863b7d7e0baa",
			"8465433b96b6f6c0dd2bfa2a4317379177e31bbd8a9357530b959ef32035ee67",
		},
		"biased-mix.bpt": {
			"967f31a0b82e682e5eb36993afa0c1a5ad95e7cb45917eaff805243471591fe9",
			"893a63ea03ad7186f75b8fc2e0c9b88696555f182d74f407678c7d6869a072bf",
		},
		"chunk-straddle.bpt": {
			"429f4d80a383298f2dcc5e1898397804289b4cb1261570ce6a4fe0004f99e880",
			"a6a2be454dd5491e5739a217a35ca6aa9a6eac118739fb053550c1e7c4023a48",
		},
		"eviction-storm.bpt": {
			"58a22296c2555dc6707739dcbb23ec35dfa6ffa3bca27f809d06dca4d524d511",
			"2a5ce9bb8777c3faa6928d1129cd39d8513707c390c444bf223482574db79607",
		},
	}
	dir := t.TempDir()
	for name, pin := range pins {
		tr, err := ReadFile(filepath.Join("..", "refmodel", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		d := tr.Digest()
		if got := hex.EncodeToString(d[:]); got != pin.digest {
			t.Errorf("%s: Trace.Digest %s, pinned %s", name, got, pin.digest)
		}
		// The streaming writers take the records in uneven batches, so
		// their buffer and block boundaries fall mid-batch.
		third := tr.Len() / 3
		dw := NewDigestWriter(tr.Name, tr.Instructions, uint64(tr.Len()))
		dw.WriteBatch(tr.Branches[:third])
		dw.WriteBatch(tr.Branches[third:])
		d = dw.Sum()
		if got := hex.EncodeToString(d[:]); got != pin.digest {
			t.Errorf("%s: DigestWriter.WriteBatch sum %s, pinned %s", name, got, pin.digest)
		}

		path := filepath.Join(dir, name+"2")
		if err := WriteFile2(path, tr, 0); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(file); hex.EncodeToString(got[:]) != pin.bpt2 {
			t.Errorf("%s: WriteFile2 output sha256 %x, pinned %s", name, got, pin.bpt2)
		}
		var buf bytes.Buffer
		w, err := NewWriter2(&buf, tr.Name, tr.Instructions, uint64(tr.Len()), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range [][]Branch{tr.Branches[:third], tr.Branches[third:]} {
			if err := w.WriteBatch(run); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(buf.Bytes()); hex.EncodeToString(got[:]) != pin.bpt2 {
			t.Errorf("%s: Writer2.WriteBatch output sha256 %x, pinned %s", name, got, pin.bpt2)
		}
	}
}
