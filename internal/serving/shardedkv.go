package serving

import (
	"sync"
	"sync/atomic"
)

// Store is the key-value surface the serving tier depends on. The
// single-mutex KVStore, the ShardedKVStore, and the durable
// statestore.Store all implement it, so the stream processor and
// prediction service work against any of them.
//
// Implementations must not retain the value slice passed to Put (copy it),
// and Get must return a caller-owned copy: the finalisation hot path
// reuses its encode buffer across Puts, so a retaining store would see
// every state silently overwritten by the next session on the same lane.
// In return a store may overwrite a stored value in place when a Put
// replaces it with one of the same length (KVStore and ShardedKVStore
// do): Get copies under the store's lock, so no caller ever sees the
// bytes change under it.
//
// Keys exists for sweepers and restart checks (it snapshots the resident
// keyset, in no particular order); it is not a hot-path operation.
type Store interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte)
	Delete(key string)
	Keys() []string
	Stats() Stats
}

var (
	_ Store = (*KVStore)(nil)
	_ Store = (*ShardedKVStore)(nil)
)

// DefaultShards is the shard count used when NewShardedKVStore is given a
// non-positive value. 16 shards keep lock contention negligible up to a few
// dozen cores while costing only 16 small maps.
const DefaultShards = 16

// kvShard is one lock domain of the sharded store.
type kvShard struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// ShardedKVStore is a drop-in replacement for KVStore that spreads keys
// over N power-of-two shards, each guarded by its own RWMutex, with the
// access counters kept as atomics so hot-path operations never serialise on
// a global lock. It models the partitioned deployment of the paper's
// "real-time data store similar to Redis" (§9): per-user hidden states are
// independent, so the keyspace shards trivially.
type ShardedKVStore struct {
	shards []kvShard
	mask   uint32

	gets, puts, misses  atomic.Int64
	bytesRead, bytesPut atomic.Int64
	bytesStored         atomic.Int64
}

// NewShardedKVStore returns an empty store with the given shard count
// rounded up to a power of two (<=0 selects DefaultShards).
func NewShardedKVStore(shards int) *ShardedKVStore {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &ShardedKVStore{shards: make([]kvShard, n), mask: uint32(n - 1)}
	for i := range s.shards {
		s.shards[i].data = make(map[string][]byte)
	}
	return s
}

// NumShards returns the (power-of-two) shard count.
func (s *ShardedKVStore) NumShards() int { return len(s.shards) }

// KeyHash is the store keyspace hash (32-bit FNV-1a), exported so other
// Store implementations (statestore) shard identically.
func KeyHash(key string) uint32 { return fnv1a(key) }

// fnv1a is the 32-bit FNV-1a hash of key, inlined to keep the hot path
// allocation-free (hash/fnv forces the key through an io.Writer).
func fnv1a(key string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime
	}
	return h
}

func (s *ShardedKVStore) shard(key string) *kvShard {
	return &s.shards[fnv1a(key)&s.mask]
}

// Get returns a copy of the stored value (nil, false on miss). Every call
// is counted.
func (s *ShardedKVStore) Get(key string) ([]byte, bool) {
	s.gets.Add(1)
	sh := s.shard(key)
	sh.mu.RLock()
	v, ok := sh.data[key]
	if !ok {
		sh.mu.RUnlock()
		s.misses.Add(1)
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	sh.mu.RUnlock()
	s.bytesRead.Add(int64(len(out)))
	return out, true
}

// Put stores a copy of value under key. A key that already holds a value
// of the same length is overwritten in place: no caller can hold the old
// bytes, because Get copies under the lock, so a steady-state state
// update costs no allocation and leaves BytesStored as it is.
func (s *ShardedKVStore) Put(key string, value []byte) {
	s.puts.Add(1)
	s.bytesPut.Add(int64(len(value)))
	sh := s.shard(key)
	sh.mu.Lock()
	old, ok := sh.data[key]
	if ok && len(old) == len(value) {
		copy(old, value)
		sh.mu.Unlock()
		return
	}
	v := make([]byte, len(value))
	copy(v, value)
	delta := int64(len(key) + len(v))
	if ok {
		delta -= int64(len(key) + len(old))
	}
	sh.data[key] = v
	sh.mu.Unlock()
	s.bytesStored.Add(delta)
}

// Delete removes a key.
func (s *ShardedKVStore) Delete(key string) {
	sh := s.shard(key)
	sh.mu.Lock()
	old, ok := sh.data[key]
	delete(sh.data, key)
	sh.mu.Unlock()
	if ok {
		s.bytesStored.Add(-int64(len(key) + len(old)))
	}
}

// Keys snapshots the resident keyset (per-shard consistent, unordered).
func (s *ShardedKVStore) Keys() []string {
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

// Stats returns the current counters and resident footprint. BytesStored
// is maintained incrementally by Put/Delete, so Stats only touches each
// shard for its key count — O(shards), not O(keys), which matters at
// million-user populations.
func (s *ShardedKVStore) Stats() Stats {
	st := Stats{
		Gets: s.gets.Load(), Puts: s.puts.Load(), Misses: s.misses.Load(),
		BytesRead: s.bytesRead.Load(), BytesPut: s.bytesPut.Load(),
		BytesStored: s.bytesStored.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.Keys += len(sh.data)
		sh.mu.RUnlock()
	}
	return st
}
