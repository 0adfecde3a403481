package cluster

import (
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"bpred/internal/checkpoint"
)

// Key identifies one sweep cell fleet-wide: the (trace digest,
// warmup, configuration fingerprint) triple that also keys the BPC1
// checkpoint cache. Key.String is the canonical wire form and the
// coordinator's single-flight key, so one cell key addresses one
// ledger slot.
type Key struct {
	Digest      [32]byte
	Warmup      uint64
	Fingerprint string
}

// String renders the canonical form:
// <64 lowercase hex digits>|<minimal decimal warmup>|<fingerprint>.
// The fingerprint may itself contain '|' separators (core.Config
// fingerprints do), so decoding splits on the first two separators
// only.
func (k Key) String() string {
	return fmt.Sprintf("%x|%d|%s", k.Digest[:], k.Warmup, k.Fingerprint)
}

// ParseKey inverts String. Only the canonical form is accepted —
// lowercase hex, minimal decimal, non-empty fingerprint — so both
// round-trip laws hold: ParseKey(k.String()) == k for every Key with
// a non-empty fingerprint, and ParseKey(s).String() == s whenever
// ParseKey accepts s.
func ParseKey(s string) (Key, error) {
	var k Key
	dig, rest, ok := strings.Cut(s, "|")
	if !ok {
		return k, fmt.Errorf("cluster: key %q: missing digest separator", s)
	}
	if len(dig) != 2*len(k.Digest) || strings.ToLower(dig) != dig {
		return k, fmt.Errorf("cluster: key %q: digest must be %d lowercase hex digits", s, 2*len(k.Digest))
	}
	raw, err := hex.DecodeString(dig)
	if err != nil {
		return k, fmt.Errorf("cluster: key %q: %v", s, err)
	}
	copy(k.Digest[:], raw)
	w, fp, ok := strings.Cut(rest, "|")
	if !ok {
		return k, fmt.Errorf("cluster: key %q: missing warmup separator", s)
	}
	k.Warmup, err = strconv.ParseUint(w, 10, 64)
	if err != nil {
		return k, fmt.Errorf("cluster: key %q: bad warmup: %v", s, err)
	}
	if strconv.FormatUint(k.Warmup, 10) != w {
		return k, fmt.Errorf("cluster: key %q: non-canonical warmup %q", s, w)
	}
	if fp == "" {
		return k, fmt.Errorf("cluster: key %q: empty fingerprint", s)
	}
	k.Fingerprint = fp
	return k, nil
}

// CheckpointFile returns the base name of the BPC1 file that caches
// this key's cell, exactly as checkpoint.PathFor names it
// (sweep-<24-hex digest prefix>-w<warmup>.bpc). The name is derived
// through PathFor itself, so the cluster and the checkpoint layer
// agree by construction.
func (k Key) CheckpointFile() string {
	return filepath.Base(checkpoint.PathFor(".", k.Digest, k.Warmup))
}

// CheckpointFileFor names the BPC1 file for a digest prefix alone.
// PathFor consumes only the first 12 digest bytes, so padding the
// prefix out with zeros reproduces its naming exactly.
func CheckpointFileFor(prefix [12]byte, warmup uint64) string {
	var digest [32]byte
	copy(digest[:], prefix[:])
	return filepath.Base(checkpoint.PathFor(".", digest, warmup))
}

// ParseCheckpointFile inverts CheckpointFile up to the information
// the name carries: the 12-byte digest prefix and the warmup. Only
// canonical names are accepted, so
// CheckpointFileFor(ParseCheckpointFile(name)) == name whenever it
// accepts.
func ParseCheckpointFile(name string) (prefix [12]byte, warmup uint64, err error) {
	rest, ok := strings.CutPrefix(name, "sweep-")
	if !ok {
		return prefix, 0, fmt.Errorf("cluster: checkpoint name %q: missing sweep- prefix", name)
	}
	rest, ok = strings.CutSuffix(rest, ".bpc")
	if !ok {
		return prefix, 0, fmt.Errorf("cluster: checkpoint name %q: missing .bpc suffix", name)
	}
	// Hex digits never contain '-', so the first "-w" is the
	// separator for every well-formed name.
	hexPart, wPart, ok := strings.Cut(rest, "-w")
	if !ok {
		return prefix, 0, fmt.Errorf("cluster: checkpoint name %q: missing -w separator", name)
	}
	if len(hexPart) != 2*len(prefix) || strings.ToLower(hexPart) != hexPart {
		return prefix, 0, fmt.Errorf("cluster: checkpoint name %q: digest prefix must be %d lowercase hex digits", name, 2*len(prefix))
	}
	raw, err := hex.DecodeString(hexPart)
	if err != nil {
		return prefix, 0, fmt.Errorf("cluster: checkpoint name %q: %v", name, err)
	}
	copy(prefix[:], raw)
	warmup, err = strconv.ParseUint(wPart, 10, 64)
	if err != nil {
		return prefix, 0, fmt.Errorf("cluster: checkpoint name %q: bad warmup: %v", name, err)
	}
	if strconv.FormatUint(warmup, 10) != wPart {
		return prefix, 0, fmt.Errorf("cluster: checkpoint name %q: non-canonical warmup %q", name, wPart)
	}
	return prefix, warmup, nil
}

// parseDigest decodes a full hex trace digest.
func parseDigest(hexDigest string) ([32]byte, error) {
	var d [32]byte
	raw, err := hex.DecodeString(hexDigest)
	if err != nil || len(raw) != len(d) {
		return d, fmt.Errorf("cluster: bad trace digest %q", hexDigest)
	}
	copy(d[:], raw)
	return d, nil
}
