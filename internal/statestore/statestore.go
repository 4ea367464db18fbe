// Package statestore is the production-grade per-user hidden-state store of
// the §9 deployment: the serving.Store seam backed by durability (an
// append-only CRC-framed WAL with periodic snapshots and crash recovery),
// bounded residency (idle eviction by each state's own timestamp plus a
// byte-budget CLOCK sweep), and a storage tier that holds warm states int8-
// quantized at 1 byte per dimension. Evicted or lost users fall back to the
// h_0 cold start exactly as the paper prescribes, so boundedness trades a
// little recall for a hard memory ceiling — the lifecycle experiment
// quantifies the trade.
//
// The store drops under the stream processors and the prediction service
// unchanged, and is safe for concurrent use: keys are spread over
// power-of-two shards, WAL appends happen under the owning shard's lock (so
// the log's per-key order always matches the map's), and sweeps are
// amortised, single-flight, and allocation-lean.
package statestore

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/serving"
)

// Options configures a Store. The zero value is a volatile, unbounded,
// float32 store — behaviourally a ShardedKVStore.
type Options struct {
	// Dir enables durability: WAL + snapshots live here. "" keeps the
	// store memory-only.
	Dir string
	// Codec selects the resident representation (CodecFloat32, CodecInt8,
	// or CodecF32 — the f32 compute tier's transcode-free codec).
	Codec Codec
	// EvictAfter is the idle horizon in virtual seconds: a state whose
	// record timestamp lags the newest observed timestamp by more than
	// this is evicted at the next sweep. 0 disables idle eviction.
	EvictAfter int64
	// MemBudget caps resident bytes (keys + tagged values). When a Put
	// pushes the store over, a CLOCK sweep evicts
	// least-recently-referenced states down to the low watermark.
	// 0 means unbounded.
	MemBudget int64
	// Shards is rounded up to a power of two (<=0 selects
	// serving.DefaultShards).
	Shards int
	// SnapshotEvery triggers a snapshot + WAL truncation after this many
	// log records (<=0 selects 8192; ignored when Dir is "").
	SnapshotEvery int
	// SweepEvery is how many Puts pass between idle sweeps (<=0 selects
	// 1024). Budget sweeps are triggered by the budget itself.
	SweepEvery int
	// TailBuffer is how many committed records the in-memory tail ring
	// retains for TailFrom subscribers (<=0 selects 8192). A subscriber
	// that falls further behind than this must re-bootstrap.
	TailBuffer int
}

// entry is one resident state. ref is the CLOCK bit, set on Get and
// cleared by the sweep hand (atomic so reads stay under the shard RLock).
type entry struct {
	stored []byte
	lastTS int64
	ref    atomic.Bool
}

type shard struct {
	mu   sync.RWMutex
	data map[string]*entry
}

// Store implements serving.Store with durability, bounded residency, and
// codec tiering.
type Store struct {
	opts Options

	shards []shard
	mask   uint32

	gets, puts, misses  atomic.Int64
	bytesRead, bytesPut atomic.Int64
	bytesStored         atomic.Int64

	// vnow is the virtual clock: the newest record timestamp any Put has
	// carried. Idle eviction measures against it, so the store needs no
	// wall clock and replays deterministically.
	vnow atomic.Int64

	idleEvictions   atomic.Int64
	budgetEvictions atomic.Int64
	snapshots       atomic.Int64

	recovered       int
	replayedRecords int
	tornTailBytes   int64

	// walMu orders log appends and rotation; shard locks are always taken
	// before it (never the reverse), so holding a shard lock across an
	// append is deadlock-free.
	walMu            sync.Mutex
	wal              *wal
	recordsSinceSnap int

	snapMu sync.Mutex // one snapshot at a time

	// tail is the in-memory subscription ring (tail.go); tailSeq mirrors
	// its newest assigned sequence number and snapSeq the position of the
	// last completed snapshot, both atomically readable for Stats.
	tail    tailBuf
	tailSeq atomic.Int64
	snapSeq atomic.Int64

	sweepMu        sync.Mutex // single-flight sweeps
	putsSinceSweep atomic.Int64
	clockHand      int      // next shard the budget sweep visits; under sweepMu
	sweepScratch   []string // reusable eviction key batch; under sweepMu

	ioErr  atomic.Pointer[error]
	closed atomic.Bool
}

var _ serving.Store = (*Store)(nil)

// Open creates (or recovers) a store. With a non-empty Dir it loads the
// last snapshot, replays both log generations, truncates any torn tail,
// and resumes appending — recovered states are byte-identical to what the
// pre-crash store held (crash_test.go proves it at every truncation
// boundary).
func Open(opts Options) (*Store, error) {
	if opts.Shards <= 0 {
		opts.Shards = serving.DefaultShards
	}
	n := 1
	for n < opts.Shards {
		n <<= 1
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 8192
	}
	if opts.SweepEvery <= 0 {
		opts.SweepEvery = 1024
	}
	s := &Store{opts: opts, shards: make([]shard, n), mask: uint32(n - 1)}
	for i := range s.shards {
		s.shards[i].data = make(map[string]*entry)
	}
	if opts.Dir == "" {
		s.tailInit(opts.TailBuffer, 0)
		return s, nil
	}

	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	// Best-effort: a leftover tmp is never read, and writeSnapshot
	// recreates it with O_TRUNC, so a failed remove cannot corrupt state.
	os.Remove(fmt.Sprintf("%s/%s", opts.Dir, snapTmpName)) //pplint:allow walerrcheck (abandoned mid-snapshot tmp)
	apply := func(op byte, key string, val []byte) {
		switch op {
		case opDelete:
			s.applyRecovered(key, nil)
		case opClock:
			// Defensive: clock records live in snapshots, not the WAL, but a
			// future layout change must not replay one as a put.
			if len(val) == 8 {
				maxInt64(&s.vnow, int64(binary.LittleEndian.Uint64(val)))
			}
		default:
			s.applyRecovered(key, val)
		}
	}
	snapRecords, snapClock, err := loadSnapshot(opts.Dir, func(key string, val []byte) { s.applyRecovered(key, val) })
	if err != nil {
		return nil, err
	}
	// Re-seed the virtual clock from the snapshot's persisted clock as well
	// as from recovered entries' own timestamps (applyRecovered). Without
	// this, a store whose newest-timestamp entries were deleted before the
	// snapshot would reopen with an older clock and silently change its
	// idle-eviction semantics across the restart.
	maxInt64(&s.vnow, snapClock)
	oldRecords, _, err := replayFile(fmt.Sprintf("%s/%s", opts.Dir, walOldName), apply)
	if err != nil {
		return nil, err
	}
	liveRecords, torn, err := replayFile(fmt.Sprintf("%s/%s", opts.Dir, walName), apply)
	if err != nil {
		return nil, err
	}
	s.replayedRecords = snapRecords + oldRecords + liveRecords
	s.tornTailBytes = torn
	s.recordsSinceSnap = oldRecords + liveRecords
	for i := range s.shards {
		s.recovered += len(s.shards[i].data)
	}
	// Tail sequence numbering starts after the replay: a subscriber whose
	// position predates this incarnation falls below the ring's floor and
	// is forced to re-bootstrap instead of silently skipping recovered
	// records.
	s.tailInit(opts.TailBuffer, int64(s.replayedRecords))
	if s.wal, err = openWAL(opts.Dir); err != nil {
		return nil, err
	}
	if fileExists(fmt.Sprintf("%s/%s", opts.Dir, walOldName)) {
		// A wal.old.log on disk means the previous run crashed or failed
		// mid-snapshot. Compact it away now, while recovery is still
		// single-threaded: a later rotation renaming over it would destroy
		// records that exist nowhere else.
		if err := s.compactAtOpen(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// compactAtOpen snapshots the just-recovered state and resets the live
// log. Every crash window is safe because the snapshot already contains
// everything the leftover logs hold, and replay is idempotent.
func (s *Store) compactAtOpen() error {
	err := writeSnapshot(s.opts.Dir, s.vnow.Load(), func(emit func(key string, val []byte) error) error {
		for i := range s.shards {
			for k, e := range s.shards[i].data {
				if err := emit(k, e.stored); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := s.wal.retireOld(); err != nil {
		return err
	}
	if err := os.Truncate(fmt.Sprintf("%s/%s", s.opts.Dir, walName), 0); err != nil {
		return err
	}
	s.wal.size = 0
	s.recordsSinceSnap = 0
	s.snapshots.Add(1)
	s.snapSeq.Store(s.tailSeq.Load())
	return nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// applyRecovered installs one recovery record (val nil = delete) without
// touching the WAL. Single-goroutine, so no locks.
func (s *Store) applyRecovered(key string, val []byte) {
	sh := s.shard(key)
	if old, ok := sh.data[key]; ok {
		s.bytesStored.Add(-int64(len(key) + len(old.stored)))
		delete(sh.data, key)
	}
	if val == nil {
		return
	}
	e := &entry{stored: append([]byte(nil), val...), lastTS: storedTS(val)}
	sh.data[key] = e
	s.bytesStored.Add(int64(len(key) + len(e.stored)))
	maxInt64(&s.vnow, e.lastTS)
}

func (s *Store) shard(key string) *shard {
	return &s.shards[serving.KeyHash(key)&s.mask]
}

// Get returns a caller-owned wire-format copy of the stored state and
// marks the entry recently used.
func (s *Store) Get(key string) ([]byte, bool) {
	s.gets.Add(1)
	sh := s.shard(key)
	sh.mu.RLock()
	e, ok := sh.data[key]
	if !ok {
		sh.mu.RUnlock()
		s.misses.Add(1)
		return nil, false
	}
	out := decodeWire(e.stored)
	e.ref.Store(true)
	sh.mu.RUnlock()
	s.bytesRead.Add(int64(len(out)))
	return out, true
}

// Put transcodes and stores a copy of value, appends it to the WAL, and
// runs the amortised sweeps. The value slice is never retained.
func (s *Store) Put(key string, value []byte) {
	s.puts.Add(1)
	s.bytesPut.Add(int64(len(value)))
	e := &entry{stored: encodeStored(nil, s.opts.Codec, value)}
	e.lastTS = storedTS(e.stored)
	e.ref.Store(true)
	maxInt64(&s.vnow, e.lastTS)

	delta := int64(len(key) + len(e.stored))
	sh := s.shard(key)
	sh.mu.Lock()
	if old, ok := sh.data[key]; ok {
		delta -= int64(len(key) + len(old.stored))
	}
	sh.data[key] = e
	needSnap := s.logAppend(opPut, key, e.stored)
	sh.mu.Unlock()
	s.bytesStored.Add(delta)

	if needSnap {
		s.snapshot()
	}
	s.maybeSweep()
}

// Delete removes a key (and logs the removal, so recovery cannot
// resurrect it).
func (s *Store) Delete(key string) {
	sh := s.shard(key)
	sh.mu.Lock()
	old, ok := sh.data[key]
	var needSnap bool
	if ok {
		delete(sh.data, key)
		needSnap = s.logAppend(opDelete, key, nil)
	}
	sh.mu.Unlock()
	if ok {
		s.bytesStored.Add(-int64(len(key) + len(old.stored)))
	}
	if needSnap {
		s.snapshot()
	}
}

// Export streams every resident entry whose key matches, in the tagged
// stored representation — the state-transfer seam of a cluster handoff.
// Transferring stored bytes (rather than the wire format) means no
// transcoding on either side: the receiving Import installs them verbatim,
// so the moved states are byte-identical and the self-describing tag keeps
// them decodable even when source and destination run different codecs.
// Emitted slices alias the store's immutable entry storage: the callback
// may retain them but must never mutate them. Entries put concurrently
// with the export may or may not be included (handoff callers quiesce
// first).
func (s *Store) Export(match func(key string) bool, emit func(key string, stored []byte) error) error {
	type kv struct {
		k string
		v []byte
	}
	var batch []kv
	for i := range s.shards {
		sh := &s.shards[i]
		batch = batch[:0]
		sh.mu.RLock()
		for k, e := range sh.data {
			if match(k) {
				batch = append(batch, kv{k, e.stored})
			}
		}
		sh.mu.RUnlock()
		// Emit outside the lock: the callback typically does network or
		// disk I/O. Stored slices are immutable once installed, so they
		// stay valid after the lock is dropped.
		for _, it := range batch {
			if err := emit(it.k, it.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Import installs a tagged stored value verbatim — the receiving half of a
// state handoff. Like Put it logs to the WAL, seeds the virtual clock from
// the record's own timestamp, and respects the byte budget; unlike Put it
// performs no transcoding (the value keeps whatever codec its tag names)
// and does not advance the serving-traffic counters.
func (s *Store) Import(key string, stored []byte) {
	e := &entry{stored: append([]byte(nil), stored...)}
	e.lastTS = storedTS(e.stored)
	e.ref.Store(true)
	maxInt64(&s.vnow, e.lastTS)

	delta := int64(len(key) + len(e.stored))
	sh := s.shard(key)
	sh.mu.Lock()
	if old, ok := sh.data[key]; ok {
		delta -= int64(len(key) + len(old.stored))
	}
	sh.data[key] = e
	needSnap := s.logAppend(opPut, key, e.stored)
	sh.mu.Unlock()
	s.bytesStored.Add(delta)

	if needSnap {
		s.snapshot()
	}
	s.maybeSweep()
}

// DecodeStoredValue converts a tagged stored value (as emitted by Export)
// back to the wire format, allocating a fresh slice. It lets a volatile
// store ingest a statestore export without linking the codec internals.
func DecodeStoredValue(stored []byte) []byte { return decodeWire(stored) }

// Keys snapshots the resident keyset (per-shard consistent, unordered).
func (s *Store) Keys() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.data {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	return out
}

// logAppend writes one record under walMu (caller holds the shard lock,
// which is what keeps per-key log order identical to map order when a
// sweeper races a Put). Reports whether a snapshot is due; the caller must
// run it after releasing the shard lock.
func (s *Store) logAppend(op byte, key string, val []byte) bool {
	// Tail before the volatile early-return: subscribers see every commit
	// whether or not a WAL file backs it.
	s.tailAppend(op, key, val)
	if s.opts.Dir == "" {
		return false
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil { // closed
		return false
	}
	if err := s.wal.append(op, key, val); err != nil {
		s.setErr(err)
		return false
	}
	s.recordsSinceSnap++
	if s.recordsSinceSnap >= s.opts.SnapshotEvery {
		s.recordsSinceSnap = 0
		return true
	}
	return false
}

// logDeleteBatch logs a sweep's evictions for one shard as a single
// write. Same contract as logAppend (caller holds the shard lock).
func (s *Store) logDeleteBatch(keys []string) bool {
	if len(keys) == 0 {
		return false
	}
	for _, k := range keys {
		s.tailAppend(opDelete, k, nil)
	}
	if s.opts.Dir == "" {
		return false
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil {
		return false
	}
	if err := s.wal.appendDeletes(keys); err != nil {
		s.setErr(err)
		return false
	}
	s.recordsSinceSnap += len(keys)
	if s.recordsSinceSnap >= s.opts.SnapshotEvery {
		s.recordsSinceSnap = 0
		return true
	}
	return false
}

// snapshot compacts the log: rotate the WAL first (under walMu), then
// stream the shards to a tmp snapshot and rename it into place. Rotating
// before scanning makes every interleaving crash-safe: a record in the
// retired log is always reflected in the scan (map updates precede their
// append under the same shard lock), and a record in the fresh log is
// either in the snapshot too (replay is idempotent) or replayed on top of
// it — both converge to the pre-crash state.
func (s *Store) snapshot() {
	if s.opts.Dir == "" {
		return
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.walMu.Lock()
	if s.wal == nil {
		s.walMu.Unlock()
		return
	}
	err := s.wal.rotate()
	s.walMu.Unlock()
	if err != nil {
		s.setErr(err)
		return
	}
	err = writeSnapshot(s.opts.Dir, s.vnow.Load(), func(emit func(key string, val []byte) error) error {
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.RLock()
			for k, e := range sh.data {
				if err := emit(k, e.stored); err != nil {
					sh.mu.RUnlock()
					return err
				}
			}
			sh.mu.RUnlock()
		}
		return nil
	})
	if err != nil {
		s.setErr(err)
		return
	}
	// The snapshot covers everything the retired log held; drop it under
	// walMu, completing the rotation invariant rotate() opened.
	s.walMu.Lock()
	if s.wal != nil {
		err = s.wal.retireOld()
	}
	s.walMu.Unlock()
	if err != nil {
		s.setErr(err)
		return
	}
	s.snapshots.Add(1)
	// A snapshot marker in the tail tells followers the primary just
	// compacted, so they compact in (loose) lockstep instead of letting
	// their own logs grow unbounded. Its Val carries the snapshot's clock.
	var clock [8]byte
	binary.LittleEndian.PutUint64(clock[:], uint64(s.vnow.Load()))
	s.snapSeq.Store(s.tailAppend(opSnapshot, "", clock[:]))
}

// Snapshot forces a log compaction now — rotate the WAL, stream the
// resident state to disk, retire the old log. Graceful shutdown calls this
// so a clean reopen recovers from the snapshot alone; replay drivers and
// tests use it to pin compaction points deterministically. Returns the
// store's first observed I/O error (a volatile store is a no-op).
func (s *Store) Snapshot() error {
	if s.opts.Dir == "" {
		return nil
	}
	s.snapshot()
	return s.Err()
}

// maybeSweep runs the idle and budget sweeps when they are due. Sweeps are
// single-flight (TryLock): concurrent Puts never queue behind one.
func (s *Store) maybeSweep() {
	idleDue := s.opts.EvictAfter > 0 &&
		s.putsSinceSweep.Add(1) >= int64(s.opts.SweepEvery)
	budgetDue := s.opts.MemBudget > 0 && s.bytesStored.Load() > s.opts.MemBudget
	if !idleDue && !budgetDue {
		return
	}
	if !s.sweepMu.TryLock() {
		return
	}
	defer s.sweepMu.Unlock()
	if idleDue {
		s.putsSinceSweep.Store(0)
		s.evictIdleLocked(s.vnow.Load())
	}
	if s.opts.MemBudget > 0 {
		s.sweepBudgetLocked()
	}
}

func (s *Store) evictIdleLocked(now int64) int {
	horizon := now - s.opts.EvictAfter
	evicted := 0
	needSnap := false
	for i := range s.shards {
		sh := &s.shards[i]
		batch := s.sweepScratch[:0]
		sh.mu.Lock()
		var freed int64
		for k, e := range sh.data {
			if e.lastTS >= horizon {
				continue
			}
			delete(sh.data, k)
			freed += int64(len(k) + len(e.stored))
			batch = append(batch, k)
		}
		// One framed write logs the whole shard's evictions (still under
		// the shard lock, so per-key log order matches map order).
		needSnap = s.logDeleteBatch(batch) || needSnap
		sh.mu.Unlock()
		s.sweepScratch = batch
		s.bytesStored.Add(-freed)
		evicted += len(batch)
	}
	s.idleEvictions.Add(int64(evicted))
	if needSnap {
		s.snapshot()
	}
	return evicted
}

// sweepBudgetLocked is the CLOCK (second-chance) sweep: walk the shards
// from the persistent hand, skip-and-clear referenced entries, evict
// unreferenced ones, until resident bytes drop to the low watermark (90%
// of the budget, so steady-state churn does not sweep on every Put). Two
// passes bound the walk: after one full revolution every ref bit is clear.
func (s *Store) sweepBudgetLocked() {
	target := s.opts.MemBudget - s.opts.MemBudget/10
	if s.bytesStored.Load() <= s.opts.MemBudget {
		return
	}
	needSnap := false
	for pass := 0; pass < 2 && s.bytesStored.Load() > target; pass++ {
		for i := 0; i < len(s.shards) && s.bytesStored.Load() > target; i++ {
			sh := &s.shards[s.clockHand]
			s.clockHand = (s.clockHand + 1) % len(s.shards)
			batch := s.sweepScratch[:0]
			sh.mu.Lock()
			var freed int64
			for k, e := range sh.data {
				if s.bytesStored.Load()-freed <= target {
					break
				}
				if e.ref.Load() {
					e.ref.Store(false)
					continue
				}
				delete(sh.data, k)
				freed += int64(len(k) + len(e.stored))
				batch = append(batch, k)
			}
			needSnap = s.logDeleteBatch(batch) || needSnap
			sh.mu.Unlock()
			s.sweepScratch = batch
			s.bytesStored.Add(-freed)
			s.budgetEvictions.Add(int64(len(batch)))
		}
	}
	if needSnap {
		s.snapshot()
	}
}

// Stats implements the serving.Store accounting surface. BytesStored is
// the resident tagged footprint (so the int8 tier reports its real ~4×
// shrink), maintained incrementally — O(shards), not O(keys).
func (s *Store) Stats() serving.Stats {
	st := serving.Stats{
		Gets: s.gets.Load(), Puts: s.puts.Load(), Misses: s.misses.Load(),
		BytesRead: s.bytesRead.Load(), BytesPut: s.bytesPut.Load(),
		BytesStored: s.bytesStored.Load(),
		WALSeq:      s.tailSeq.Load(), SnapSeq: s.snapSeq.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.Keys += len(sh.data)
		sh.mu.RUnlock()
	}
	return st
}

// LifecycleStats reports the subsystem's own counters, beyond the
// serving.Stats surface.
type LifecycleStats struct {
	IdleEvictions   int64
	BudgetEvictions int64
	Snapshots       int64
	WALRecords      int64
	WALBytes        int64
	// Recovery facts from Open.
	RecoveredKeys   int
	ReplayedRecords int
	TornTailBytes   int64
	// VirtualNow is the newest record timestamp observed.
	VirtualNow int64
	// WALSeq is the newest committed tail sequence number; SnapSeq the
	// position of the last completed snapshot. Their difference is how
	// much log the next compaction will retire; a follower's applied
	// position against WALSeq is the replication lag.
	WALSeq  int64
	SnapSeq int64
}

// Lifecycle returns eviction/durability counters.
func (s *Store) Lifecycle() LifecycleStats {
	ls := LifecycleStats{
		IdleEvictions:   s.idleEvictions.Load(),
		BudgetEvictions: s.budgetEvictions.Load(),
		Snapshots:       s.snapshots.Load(),
		RecoveredKeys:   s.recovered,
		ReplayedRecords: s.replayedRecords,
		TornTailBytes:   s.tornTailBytes,
		VirtualNow:      s.vnow.Load(),
		WALSeq:          s.tailSeq.Load(),
		SnapSeq:         s.snapSeq.Load(),
	}
	s.walMu.Lock()
	if s.wal != nil {
		ls.WALRecords = s.wal.records
		ls.WALBytes = s.wal.bytes
	}
	s.walMu.Unlock()
	return ls
}

// Err surfaces the first I/O error the store swallowed on its non-erroring
// hot paths (serving.Store has no error returns by design).
func (s *Store) Err() error {
	if p := s.ioErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *Store) setErr(err error) {
	s.ioErr.CompareAndSwap(nil, &err)
}

// Close syncs and closes the log. The resident map stays readable, but
// further mutations are no longer persisted; reopen with Open. Returns the
// first I/O error observed over the store's lifetime.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return s.Err()
	}
	s.walMu.Lock()
	if s.wal != nil {
		if err := s.wal.close(); err != nil {
			s.setErr(err)
		}
		s.wal = nil
	}
	s.walMu.Unlock()
	return s.Err()
}

// maxInt64 lifts a to at least v.
func maxInt64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
