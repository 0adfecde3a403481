package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"bpred/internal/trace"
)

// ErrNoTrace marks a lookup for a digest the store has never seen (or
// that the requesting tenant cannot see).
var ErrNoTrace = errors.New("service: no such trace")

// ErrTraceTooLarge marks an upload whose record count exceeds the
// store's size cap.
var ErrTraceTooLarge = errors.New("service: trace exceeds size cap")

// ErrTraceQuota marks an upload refused by a tenant's trace quota.
var ErrTraceQuota = errors.New("service: tenant trace quota exceeded")

// TraceInfo is the stored metadata of one ingested trace.
type TraceInfo struct {
	// Digest is the hex SHA-256 content digest — the trace's identity
	// everywhere in the service and in the checkpoint layer.
	Digest string `json:"digest"`
	// Name is the workload name from the trace header.
	Name string `json:"name"`
	// Branches is the record count.
	Branches uint64 `json:"branches"`
	// Instructions is the represented dynamic instruction count.
	Instructions uint64 `json:"instructions"`
	// Format is the on-disk format version backing this trace (2 for
	// the canonical columnar form; 1 for legacy .bpt files adopted
	// from an older data directory).
	Format int `json:"format,omitempty"`
	// Bytes is the canonical on-disk size of the stored trace; it is
	// what byte quotas charge. Entries persisted before this field
	// existed are backfilled from the backing file at load.
	Bytes uint64 `json:"bytes,omitempty"`
}

// indexEntry is the persisted index.json form: the wire metadata plus
// the owning tenants, which never leave the store through the API.
type indexEntry struct {
	TraceInfo
	Tenants []string `json:"tenants,omitempty"`
}

// cachedTrace is one decoded-cache entry. pins counts in-flight jobs
// holding the trace through a TraceHandle; pinned entries are never
// evicted, so a running sweep's trace cannot be decoded out from
// under it no matter how much upload traffic churns the cache.
type cachedTrace struct {
	tr   *trace.Trace
	pins int
	use  uint64 // last-touch tick, for LRU ordering
}

// TraceStore ingests, persists, and serves traces keyed by content
// digest. Uploads (BPT1 or BPT2) are streamed through the versioned
// decoder straight into a digest computation and a canonical BPT2
// transcode on disk (dir/<digest>.bpt2) — the upload path never
// materializes a decoded trace, so a hostile 2 GB stream costs one
// block of memory, and the record-count cap is enforced from the
// declared header immediately and from actual records as a belt.
//
// Decoded traces are cached in a bounded LRU with pinning: at most
// cacheCap traces are resident (pinned entries can push past the cap,
// never get evicted, and the cap is restored as pins release). Traces
// whose record count exceeds streamBranches are never decoded for
// local execution at all — handles for them stream blocks from disk.
type TraceStore struct {
	dir string
	// maxBranches caps a single trace's record count; together with
	// the HTTP layer's body-size cap it bounds per-upload memory.
	maxBranches uint64
	// cacheCap bounds the decoded-trace LRU (entries).
	cacheCap int
	// streamBranches is the decode-versus-stream cutoff.
	streamBranches uint64

	mu     sync.Mutex
	infos  map[string]TraceInfo       //bplint:guardedby mu // digest hex -> metadata
	owners map[string]map[string]bool //bplint:guardedby mu // digest hex -> owning tenants
	loaded map[string]*cachedTrace    //bplint:guardedby mu // digest hex -> decoded LRU entry
	tick   uint64                     //bplint:guardedby mu
}

// DefaultTraceCacheCap bounds the decoded-trace LRU when the
// configuration leaves it zero.
const DefaultTraceCacheCap = 8

// DefaultStreamBranches is the decode-versus-stream cutoff when the
// configuration leaves it zero: traces beyond 4M records (~96 MB
// decoded) run from streamed BPT2 blocks instead of resident slices.
const DefaultStreamBranches = 1 << 22

// NewTraceStore opens (or creates) a trace store rooted at dir.
// cacheCap 0 selects DefaultTraceCacheCap; streamBranches 0 selects
// DefaultStreamBranches.
func NewTraceStore(dir string, maxBranches uint64, cacheCap int, streamBranches uint64) (*TraceStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if cacheCap <= 0 {
		cacheCap = DefaultTraceCacheCap
	}
	if streamBranches == 0 {
		streamBranches = DefaultStreamBranches
	}
	s := &TraceStore{
		dir:            dir,
		maxBranches:    maxBranches,
		cacheCap:       cacheCap,
		streamBranches: streamBranches,
		infos:          make(map[string]TraceInfo),
		owners:         make(map[string]map[string]bool),
		loaded:         make(map[string]*cachedTrace),
	}
	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *TraceStore) indexPath() string { return filepath.Join(s.dir, "index.json") }

// pathFor returns the digest's backing file for a given format
// version.
func (s *TraceStore) pathFor(digest string, format int) string {
	if format == 1 {
		return filepath.Join(s.dir, digest+".bpt")
	}
	return filepath.Join(s.dir, digest+".bpt2")
}

// tracePathLocked resolves the digest's backing file from its
// recorded format. Callers hold s.mu.
func (s *TraceStore) tracePathLocked(digest string) string {
	return s.pathFor(digest, s.infos[digest].Format)
}

//bplint:exclusive runs from NewTraceStore before the store is shared
func (s *TraceStore) loadIndex() error {
	raw, err := os.ReadFile(s.indexPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: reading trace index: %w", err)
	}
	var entries []indexEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		return fmt.Errorf("service: corrupt trace index %s: %w", s.indexPath(), err)
	}
	for _, in := range entries {
		// Only believe index entries whose backing file survived.
		// Entries from an older data directory carry no format; adopt
		// whichever file exists, preferring the canonical BPT2.
		if in.Format == 0 {
			if _, err := os.Stat(s.pathFor(in.Digest, 2)); err == nil {
				in.Format = 2
			} else {
				in.Format = 1
			}
		}
		st, err := os.Stat(s.pathFor(in.Digest, in.Format))
		if err != nil {
			continue
		}
		// Indexes written before byte accounting carry no size; charge
		// quotas from the surviving file.
		if in.Bytes == 0 {
			in.Bytes = uint64(st.Size())
		}
		s.infos[in.Digest] = in.TraceInfo
		for _, t := range in.Tenants {
			s.addOwnerLocked(in.Digest, t)
		}
	}
	return nil
}

// persistIndexLocked atomically rewrites the index. Callers hold s.mu.
func (s *TraceStore) persistIndexLocked() error {
	entries := make([]indexEntry, 0, len(s.infos))
	for d, in := range s.infos {
		e := indexEntry{TraceInfo: in}
		for t := range s.owners[d] {
			e.Tenants = append(e.Tenants, t)
		}
		sort.Strings(e.Tenants)
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Digest < entries[j].Digest })
	raw, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return atomicWrite(s.indexPath(), raw)
}

func (s *TraceStore) addOwnerLocked(digest, tenant string) bool {
	if tenant == "" {
		return false
	}
	set := s.owners[digest]
	if set == nil {
		set = make(map[string]bool)
		s.owners[digest] = set
	}
	if set[tenant] {
		return false
	}
	set[tenant] = true
	return true
}

// usageLocked sums the tenant's owned-trace count and canonical
// bytes. Callers hold s.mu.
func (s *TraceStore) usageLocked(tenant string) (traces int, bytes uint64) {
	for d := range s.infos {
		if s.owners[d][tenant] {
			traces++
			bytes += s.infos[d].Bytes
		}
	}
	return traces, bytes
}

// admitLocked checks whether tenant may take ownership of one more
// trace of the given canonical size under quota. Callers hold s.mu.
func (s *TraceStore) admitLocked(tenant string, quota TraceQuota, size uint64) error {
	if tenant == "" {
		return nil
	}
	owned, used := s.usageLocked(tenant)
	if quota.MaxTraces > 0 && owned >= quota.MaxTraces {
		return fmt.Errorf("%w: %d traces, cap is %d", ErrTraceQuota, owned, quota.MaxTraces)
	}
	if quota.MaxBytes > 0 && used+size > quota.MaxBytes {
		return fmt.Errorf("%w: %d of %d bytes used, this %d-byte trace does not fit",
			ErrTraceQuota, used, quota.MaxBytes, size)
	}
	return nil
}

// visibleLocked reports whether tenant may see digest. The empty
// tenant is the open single-tenant mode (no auth configured) and sees
// everything.
func (s *TraceStore) visibleLocked(digest, tenant string) bool {
	if tenant == "" {
		return true
	}
	return s.owners[digest][tenant]
}

// TraceQuota bounds a tenant's footprint in the store. Zero fields
// are unlimited. MaxTraces caps distinct owned traces; MaxBytes caps
// the summed canonical on-disk size of everything the tenant owns —
// shared content charges every owner its full size, so releasing a
// trace always frees the tenant's own accounting.
type TraceQuota struct {
	MaxTraces int
	MaxBytes  uint64
}

// Ingest streams one trace upload in open single-tenant mode.
func (s *TraceStore) Ingest(r io.Reader) (TraceInfo, error) {
	return s.IngestAs(context.Background(), r, "", TraceQuota{})
}

// IngestAs streams one trace upload (BPT1 or BPT2) for a tenant:
// the stream is decoded a batch at a time into a content digest and a
// canonical BPT2 transcode on a temp file (transcode), then renamed to
// <digest>.bpt2 — the decoded trace is never resident. Uploading
// content the store already holds is idempotent (the tenant is added
// as an owner). The record-count cap rejects oversized headers before
// any record is read, and lying headers when the actual records
// overrun. quota caps the tenant's owned-trace count and summed
// bytes; both apply whenever ownership would grow, including adopting
// content another tenant already uploaded. ctx cancels the ingest at
// batch boundaries (disconnected uploaders stop costing decode work).
func (s *TraceStore) IngestAs(ctx context.Context, r io.Reader, tenant string, quota TraceQuota) (info TraceInfo, err error) {
	rd, err := trace.NewReader(r)
	if err != nil {
		return TraceInfo{}, err
	}
	if rd.Count() > s.maxBranches {
		return TraceInfo{}, fmt.Errorf("%w: header promises %d records, cap is %d",
			ErrTraceTooLarge, rd.Count(), s.maxBranches)
	}
	tmp, err := os.CreateTemp(s.dir, ".ingest-*.tmp")
	if err != nil {
		return TraceInfo{}, fmt.Errorf("service: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close() // error-path cleanup; the ingest error wins
			if rmErr := os.Remove(tmp.Name()); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) && err == nil {
				err = fmt.Errorf("service: %w", rmErr)
			}
		}
	}()
	digest, err := transcode(ctx, rd, tmp, s.maxBranches)
	if err != nil {
		return TraceInfo{}, err
	}
	if err := tmp.Close(); err != nil {
		return TraceInfo{}, fmt.Errorf("service: %w", err)
	}
	st, err := os.Stat(tmp.Name())
	if err != nil {
		return TraceInfo{}, fmt.Errorf("service: %w", err)
	}
	key := hex.EncodeToString(digest[:])
	info = TraceInfo{
		Digest:       key,
		Name:         rd.Name(),
		Branches:     rd.Count(),
		Instructions: rd.Instructions(),
		Format:       2,
		Bytes:        uint64(st.Size()),
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.infos[key]; ok {
		// Content dedup is global; ownership is per-tenant — and
		// adopting content another tenant uploaded still grows this
		// tenant's footprint, so quota applies here too.
		if tenant != "" && !s.owners[key][tenant] {
			if err := s.admitLocked(tenant, quota, existing.Bytes); err != nil {
				return TraceInfo{}, err
			}
		}
		if s.addOwnerLocked(key, tenant) {
			if err := s.persistIndexLocked(); err != nil {
				return TraceInfo{}, err
			}
		}
		if rmErr := os.Remove(tmp.Name()); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
			return TraceInfo{}, fmt.Errorf("service: %w", rmErr)
		}
		tmp = nil
		return existing, nil
	}
	if err := s.admitLocked(tenant, quota, info.Bytes); err != nil {
		return TraceInfo{}, err
	}
	// Rename into place so a crash mid-write never leaves a half trace
	// under a valid digest name.
	if err := os.Rename(tmp.Name(), s.pathFor(key, 2)); err != nil {
		return TraceInfo{}, fmt.Errorf("service: %w", err)
	}
	tmp = nil
	s.infos[key] = info
	s.addOwnerLocked(key, tenant)
	if err := s.persistIndexLocked(); err != nil {
		return TraceInfo{}, err
	}
	return info, nil
}

// ingestBatch is the record count of each of transcode's three
// batches: 147 KB of decoded records in flight.
const ingestBatch = 2048

// transcode is IngestAs's pipeline, run through trace.FanOut: the
// calling goroutine decodes rd into a ring of three batches, and the
// BPT2 encoder (writing to dst) and the content digest each run over
// every batch on a goroutine of their own, so decode, encode and
// SHA-256 overlap. A batch is decoded into again only once both have
// released it. ctx cancels at batch boundaries, and a failed BPT2
// write stops the decode the same way. It returns the digest once
// every promised record is encoded and the BPT2 index is written.
func transcode(ctx context.Context, rd trace.Reader, dst io.Writer, maxBranches uint64) ([sha256.Size]byte, error) {
	var digest [sha256.Size]byte
	w2, err := trace.NewWriter2(dst, rd.Name(), rd.Instructions(), rd.Count(), 0)
	if err != nil {
		return digest, err
	}
	dw := trace.NewDigestWriter(rd.Name(), rd.Instructions(), rd.Count())
	var n uint64
	hash := func(batch []trace.Branch) error {
		n += uint64(len(batch))
		// Belt against decoder regressions: the reader already stops
		// at the header count, which IngestAs's cap bounded.
		if n > maxBranches {
			return fmt.Errorf("%w: stream exceeds %d records", ErrTraceTooLarge, maxBranches)
		}
		dw.WriteBatch(batch)
		return nil
	}
	slots := trace.Cut(make([]trace.Branch, 3*ingestBatch), 3)
	if err := trace.FanOut(ctx, rd, slots, hash, w2.WriteBatch); err != nil {
		return digest, err
	}
	if err := rd.Err(); err != nil {
		return digest, err
	}
	if n != rd.Count() {
		return digest, fmt.Errorf("trace: truncated upload: %d of %d records", n, rd.Count())
	}
	if err := w2.Close(); err != nil {
		return digest, err
	}
	return dw.Sum(), nil
}

// Open returns the raw canonical byte stream for a stored digest.
// Cluster workers replicate traces through it (cluster.TraceOpener);
// the cluster transport carries its own shared-token auth.
func (s *TraceStore) Open(digest string) (io.ReadCloser, error) {
	s.mu.Lock()
	_, ok := s.infos[digest]
	path := s.tracePathLocked(digest)
	s.mu.Unlock()
	if !ok {
		return nil, ErrNoTrace
	}
	return os.Open(path)
}

// Info returns the metadata for a digest in open single-tenant mode.
func (s *TraceStore) Info(digest string) (TraceInfo, error) {
	return s.InfoFor(digest, "")
}

// InfoFor returns the metadata for a digest as seen by tenant; a
// trace the tenant does not own is indistinguishable from a missing
// one.
func (s *TraceStore) InfoFor(digest, tenant string) (TraceInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	in, ok := s.infos[digest]
	if !ok || !s.visibleLocked(digest, tenant) {
		return TraceInfo{}, ErrNoTrace
	}
	return in, nil
}

// List returns all stored traces, sorted by digest.
func (s *TraceStore) List() []TraceInfo {
	return s.ListFor("")
}

// ListFor returns the traces visible to tenant, sorted by digest.
func (s *TraceStore) ListFor(tenant string) []TraceInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceInfo, 0, len(s.infos))
	for d, in := range s.infos {
		if s.visibleLocked(d, tenant) {
			out = append(out, in)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

// Len returns the number of stored traces.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.infos)
}

// Resident returns the number of decoded traces currently cached —
// the quantity the LRU bounds.
func (s *TraceStore) Resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.loaded)
}

// pins returns a digest's pin count (test observability).
func (s *TraceStore) pins(digest string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.loaded[digest]; ok {
		return e.pins
	}
	return 0
}

// TraceHandle is a job's lease on one trace. Decoded handles pin
// their LRU entry until Release; streaming handles (records beyond
// the stream cutoff) hold no memory and open block readers on demand.
type TraceHandle struct {
	s        *TraceStore
	info     TraceInfo
	pinned   bool
	released bool //bplint:guardedby s.mu
}

// Info returns the trace's metadata.
func (h *TraceHandle) Info() TraceInfo { return h.info }

// OpenStream opens a fresh block reader over the backing file. Each
// sweep tier opens its own pass; the caller owns Close.
func (h *TraceHandle) OpenStream() (*trace.FileReader, error) {
	h.s.mu.Lock()
	path := h.s.tracePathLocked(h.info.Digest)
	h.s.mu.Unlock()
	return trace.OpenFile(path)
}

// Release drops the handle's pin. Idempotent; streaming handles are
// no-ops.
func (h *TraceHandle) Release() {
	if h == nil || !h.pinned {
		return
	}
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	if h.released {
		return
	}
	h.released = true
	if e, ok := h.s.loaded[h.info.Digest]; ok && e.pins > 0 {
		e.pins--
	}
	h.s.evictLocked()
}

// Acquire leases a trace for a job. Traces at or under the stream
// cutoff are decoded (or found) in the LRU and pinned until Release;
// larger traces return a streaming handle without touching the cache.
func (s *TraceStore) Acquire(digest string) (*TraceHandle, error) {
	s.mu.Lock()
	info, ok := s.infos[digest]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNoTrace
	}
	if s.streams(info) {
		return &TraceHandle{s: s, info: info}, nil
	}
	if _, err := s.load(digest, true); err != nil {
		return nil, err
	}
	return &TraceHandle{s: s, info: info, pinned: true}, nil
}

// streams reports whether a trace runs from streamed BPT2 blocks (more
// records than the stream cutoff) rather than a resident decode.
func (s *TraceStore) streams(info TraceInfo) bool { return info.Branches > s.streamBranches }

// Trace returns the decoded trace for a digest, loading (and digest-
// verifying) the persisted file on first use after a restart. It is
// the cluster.TraceProvider surface for the embedded worker, which
// calls it only for traces at or under the stream cutoff; the LRU
// manages the entry, unpinned (the job's Acquire holds the pin). The
// local file decode is fast enough that ctx only gates entry.
func (s *TraceStore) Trace(ctx context.Context, digest string) (*trace.Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.load(digest, false)
}

// OpenStream opens a fresh block reader over a trace past the stream
// cutoff and returns nil for one at or under it, which runs from the
// decoded LRU through Trace instead — Acquire's decode-or-stream
// choice, made for the embedded worker (cluster.StreamProvider). The
// caller owns Close.
func (s *TraceStore) OpenStream(digest string) (*trace.FileReader, error) {
	s.mu.Lock()
	info, ok := s.infos[digest]
	path := s.tracePathLocked(digest)
	s.mu.Unlock()
	if !ok {
		return nil, ErrNoTrace
	}
	if !s.streams(info) {
		return nil, nil
	}
	return trace.OpenFile(path)
}

// load returns the digest's decoded trace through the LRU, decoding
// outside the lock on a miss. pin guards the entry against eviction
// until the corresponding Release.
func (s *TraceStore) load(digest string, pin bool) (*trace.Trace, error) {
	s.mu.Lock()
	if e, ok := s.loaded[digest]; ok {
		s.touchLocked(e, pin)
		s.mu.Unlock()
		return e.tr, nil
	}
	_, known := s.infos[digest]
	path := s.tracePathLocked(digest)
	s.mu.Unlock()
	if !known {
		return nil, ErrNoTrace
	}
	// Decode outside the lock: it can be slow and must not stall
	// uploads or listings. A duplicate concurrent decode is harmless
	// (same content; the first inserted entry wins).
	t, err := trace.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("service: loading trace %s: %w", digest, err)
	}
	sum := t.Digest()
	if hex.EncodeToString(sum[:]) != digest {
		return nil, fmt.Errorf("service: trace file %s content does not match its digest name", path)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.loaded[digest]
	if !ok {
		e = &cachedTrace{tr: t}
		s.loaded[digest] = e
	}
	s.touchLocked(e, pin)
	s.evictLocked()
	return e.tr, nil
}

// touchLocked bumps an entry's LRU position and, when pin is set, its
// pin count. Callers hold s.mu.
func (s *TraceStore) touchLocked(e *cachedTrace, pin bool) {
	s.tick++
	e.use = s.tick
	if pin {
		e.pins++
	}
}

// evictLocked restores the cache cap by dropping least-recently-used
// unpinned entries. Pinned entries can hold the cache over cap; the
// next Release re-runs eviction. Callers hold s.mu.
func (s *TraceStore) evictLocked() {
	for len(s.loaded) > s.cacheCap {
		victim := ""
		var oldest uint64
		for d, e := range s.loaded {
			if e.pins > 0 {
				continue
			}
			if victim == "" || e.use < oldest {
				victim, oldest = d, e.use
			}
		}
		if victim == "" {
			return // everything over cap is pinned
		}
		delete(s.loaded, victim)
	}
}

// atomicWrite writes data to path via a same-directory temp file and
// rename, so readers never observe a torn file.
func atomicWrite(path string, data []byte) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("service: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: %w", err)
	}
	return nil
}
