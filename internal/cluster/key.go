package cluster

// Key identifies one sweep cell fleet-wide: the (trace digest,
// warmup, configuration fingerprint) triple that also keys the BPC1
// checkpoint cache. Key is comparable and is the coordinator's
// single-flight map key, so one cell key addresses one ledger slot.
type Key struct {
	Digest      [32]byte
	Warmup      uint64
	Fingerprint string
}
