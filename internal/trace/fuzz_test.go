package trace

import (
	"bytes"
	"testing"
)

// FuzzReader checks the trace decoder never panics or loops on
// arbitrary input, and that NextBatch, at a fuzz-chosen buffer length,
// yields exactly the records and the error that Next does.
func FuzzReader(f *testing.F) {
	// Seed with a valid stream.
	tr := &Trace{Name: "seed", Instructions: 42}
	tr.Append(Branch{PC: 0x1000, Target: 0x1100, Taken: true})
	tr.Append(Branch{PC: 0x1008, Target: 0x0F00, Taken: false})
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, tr.Name, tr.Instructions, uint64(tr.Len()))
	for _, b := range tr.Branches {
		_ = w.WriteBranch(b)
	}
	_ = w.Close()
	f.Add(buf.Bytes(), uint16(1))
	f.Add([]byte("BPT1"), uint16(8192))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("BPT1\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"), uint16(3))
	// The allocation-bomb crasher: a header promising 2^50 records
	// (also checked into testdata/fuzz/FuzzReader).
	f.Add(craftHeader("bomb!", 5, 0, 1<<50), uint16(4096))
	// A stream longer than the reader's buffer, whole and with an
	// overflowing varint deep inside it, so the batch decoder's
	// buffered fast path runs and hands a bad record to Next.
	long := encode1(synthBranches(30000, 3))
	f.Add(long, uint16(8192))
	f.Add(long[:len(long)-5], uint16(1000))
	bad := bytes.Clone(long)
	for i := len(bad) / 2; i < len(bad)/2+11; i++ {
		bad[i] = 0xff
	}
	f.Add(bad, uint16(4096))

	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		checkBatchMatchesNext(t, data, 1+int(n)%(1<<13))
	})
}

// encode1 returns the BPT1 encoding of records.
func encode1(records []Branch) []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "enc1", 1, uint64(len(records)))
	if err != nil {
		panic(err)
	}
	for _, b := range records {
		if err := w.WriteBranch(b); err != nil {
			panic(err)
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// checkBatchMatchesNext decodes data twice, record by record with
// Next and in batches of bufLen with NextBatch, and requires both to
// yield the same records and end on the same error text. Either
// decode running past the limit means the decoder ran away.
func checkBatchMatchesNext(t *testing.T, data []byte, bufLen int) {
	t.Helper()
	const limit = 1 << 20
	rn, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return
	}
	var want []Branch
	for len(want) <= limit {
		b, ok := rn.Next()
		if !ok {
			break
		}
		want = append(want, b)
	}
	rb, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("second header parse failed: %v", err)
	}
	buf := make([]Branch, bufLen)
	var got []Branch
	for len(got) <= limit {
		batch := rb.NextBatch(buf)
		if len(batch) == 0 {
			break
		}
		if len(batch) > bufLen {
			t.Fatalf("NextBatch returned %d records for a %d-record buffer", len(batch), bufLen)
		}
		got = append(got, batch...)
	}
	if len(want) > limit || len(got) > limit {
		t.Fatalf("decode ran past %d records", limit)
	}
	if len(got) != len(want) {
		t.Fatalf("NextBatch(%d) yielded %d records, Next %d (errors %v / %v)", bufLen, len(got), len(want), rb.Err(), rn.Err())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: NextBatch(%d) %+v, Next %+v", i, bufLen, got[i], want[i])
		}
	}
	if errText(rb.Err()) != errText(rn.Err()) {
		t.Fatalf("NextBatch(%d) error %q, Next error %q", bufLen, errText(rb.Err()), errText(rn.Err()))
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzRoundTrip checks arbitrary branch content written by the
// encoder decodes to identical records.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0x1000), uint64(0x1100), true, uint64(0x1008), uint64(0x0F00), false)
	f.Fuzz(func(t *testing.T, pc1, tgt1 uint64, tk1 bool, pc2, tgt2 uint64, tk2 bool) {
		in := []Branch{
			{PC: pc1, Target: tgt1, Taken: tk1},
			{PC: pc2, Target: tgt2, Taken: tk2},
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "fuzz", 7, 2)
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
	})
}
