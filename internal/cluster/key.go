package cluster

import (
	"encoding/hex"
	"fmt"
)

// Key identifies one sweep cell fleet-wide: the (trace digest,
// warmup, configuration fingerprint) triple that also keys the BPC1
// checkpoint cache. Key is comparable and is the coordinator's
// single-flight map key, so one cell key addresses one ledger slot.
type Key struct {
	Digest      [32]byte
	Warmup      uint64
	Fingerprint string
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
