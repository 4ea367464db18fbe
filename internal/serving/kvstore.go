// Package serving simulates the production deployment of §9: a Redis-like
// key-value store holding one hidden state per user, a Kafka-like stream
// processor that joins session context and access events and runs the GRU
// update after the session window closes, a prediction service invoked at
// session startup, and a cost model that reproduces the paper's serving
// cost comparison (≈20 aggregation lookups per prediction vs one 512-byte
// hidden-state read; ≈9.5× model compute for the RNN; ≈10× net serving cost
// reduction).
package serving

import (
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/tensor"
)

// KVStore is an in-memory key-value store with the access accounting the
// cost comparison needs. It stands in for the "real-time data store similar
// to Redis" of §9.
type KVStore struct {
	mu   sync.Mutex
	data map[string][]byte

	gets, puts, misses  int64
	bytesRead, bytesPut int64
	bytesStored         int64
}

// NewKVStore returns an empty store.
func NewKVStore() *KVStore {
	return &KVStore{data: make(map[string][]byte)}
}

// Get returns the stored value (nil, false on miss). Every call is counted.
func (s *KVStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	v, ok := s.data[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.bytesRead += int64(len(v))
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// Put stores a copy of value under key.
func (s *KVStore) Put(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.bytesPut += int64(len(value))
	v := make([]byte, len(value))
	copy(v, value)
	if old, ok := s.data[key]; ok {
		s.bytesStored -= int64(len(key) + len(old))
	}
	s.bytesStored += int64(len(key) + len(v))
	s.data[key] = v
}

// Delete removes a key.
func (s *KVStore) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.data[key]; ok {
		s.bytesStored -= int64(len(key) + len(old))
		delete(s.data, key)
	}
}

// Keys snapshots the resident keyset (unordered).
func (s *KVStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.data))
	for k := range s.data {
		out = append(out, k)
	}
	return out
}

// Stats is a snapshot of the store's access counters.
type Stats struct {
	Keys        int
	Gets        int64
	Puts        int64
	Misses      int64
	BytesRead   int64
	BytesPut    int64
	BytesStored int64
	// WALSeq/SnapSeq are populated only by the durable statestore: the
	// newest committed tail sequence number and the position of the last
	// completed snapshot. A follower's applied position lagging its
	// primary's WALSeq is the replication lag.
	WALSeq  int64
	SnapSeq int64
}

// Stats returns the current counters and resident footprint. BytesStored
// is maintained incrementally by Put/Delete — the old full-map scan under
// the mutex did not scale to million-key populations.
func (s *KVStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Keys: len(s.data), Gets: s.gets, Puts: s.puts, Misses: s.misses,
		BytesRead: s.bytesRead, BytesPut: s.bytesPut, BytesStored: s.bytesStored,
	}
}

// ---- Hidden-state codec ----
//
// Hidden states are stored as float32, matching the paper's 512-byte
// footprint for a 128-dimensional vector, together with the timestamp of
// the session that produced them (needed for T(t−t_k) at prediction time).

// EncodeHiddenInto serialises (hidden, lastTS) for storage into a
// reusable buffer: it reallocates only when dst is too small (nil is
// fine) and returns the encoded slice (the serving hot path calls this
// once per finalisation; Put copies, so the buffer can be reused
// immediately).
func EncodeHiddenInto(dst []byte, h tensor.Vector, lastTS int64) []byte {
	need := 8 + 4*len(h)
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	buf := dst[:need]
	binary.LittleEndian.PutUint64(buf, uint64(lastTS))
	for i, v := range h {
		binary.LittleEndian.PutUint32(buf[8+4*i:], math.Float32bits(float32(v)))
	}
	return buf
}

// DecodeHiddenInto reverses EncodeHiddenInto into a caller-owned vector,
// failing when the encoded dimension does not match len(h) (which doubles
// as the state-size check the processors need).
func DecodeHiddenInto(buf []byte, h tensor.Vector) (lastTS int64, ok bool) {
	if len(buf) < 8 || (len(buf)-8)%4 != 0 || (len(buf)-8)/4 != len(h) {
		return 0, false
	}
	lastTS = int64(binary.LittleEndian.Uint64(buf))
	for i := range h {
		h[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[8+4*i:])))
	}
	return lastTS, true
}

// HiddenValueBytes returns the stored size of one hidden state of dimension
// d (512 bytes of vector at d=128, plus the 8-byte timestamp).
func HiddenValueBytes(d int) int { return 8 + 4*d }

// ---- f32-tier hidden-state codec ----
//
// The wire format above is already float32 per dimension, so the f32
// serving tier shares it byte for byte: EncodeHiddenInto32 is a straight
// bit copy (no rounding — the state is float32 end to end), and a state
// written by either tier decodes into the other. f64-written states widen
// exactly into the f32 tier's decode; the only cross-tier difference is
// which arithmetic produced the bits, which the bounded-error equivalence
// tests cover.

// EncodeHiddenInto32 is EncodeHiddenInto for the f32 tier: identical wire
// bytes, no per-dimension rounding step.
func EncodeHiddenInto32(dst []byte, h tensor.Vector32, lastTS int64) []byte {
	need := 8 + 4*len(h)
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	buf := dst[:need]
	binary.LittleEndian.PutUint64(buf, uint64(lastTS))
	for i, v := range h {
		binary.LittleEndian.PutUint32(buf[8+4*i:], math.Float32bits(v))
	}
	return buf
}

// DecodeHiddenInto32 is DecodeHiddenInto for the f32 tier: the same length
// checks (doubling as the state-size check), a straight bit copy out.
func DecodeHiddenInto32(buf []byte, h tensor.Vector32) (lastTS int64, ok bool) {
	if len(buf) < 8 || (len(buf)-8)%4 != 0 || (len(buf)-8)/4 != len(h) {
		return 0, false
	}
	lastTS = int64(binary.LittleEndian.Uint64(buf))
	for i := range h {
		h[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[8+4*i:]))
	}
	return lastTS, true
}

// ---- Quantized hidden-state codec (§9) ----
//
// The paper notes that neural-network quantization can store single bytes
// instead of floats per dimension. GRU hidden values are convex
// combinations of tanh outputs, so they live in (−1, 1) and a fixed-scale
// int8 code loses at most 1/254 per dimension.

// QuantizeSample maps one hidden value to its fixed-scale int8 code; it is
// the single source of the quantization arithmetic, shared with the
// statestore's int8 tier so the two can never drift bit-wise.
func QuantizeSample(v float64) int8 { return int8(quantClamp(v) * 127) }

// DequantizeSample reverses QuantizeSample.
func DequantizeSample(b int8) float64 { return float64(b) / 127 }

// QuantizedValueBytes returns the stored size of a quantized state of
// dimension d (136 bytes at d=128 — the 4× shrink §9 describes).
func QuantizedValueBytes(d int) int { return 8 + d }

// QuantizeRoundTrip returns the hidden vector as the serving tier would see
// it after an int8 store/load cycle. Use with
// core.Model.EvaluateSessionsTransformed to measure the quality impact.
func QuantizeRoundTrip(h tensor.Vector) tensor.Vector {
	out := tensor.NewVector(len(h))
	for i, v := range h {
		out[i] = DequantizeSample(QuantizeSample(v))
	}
	return out
}

func quantClamp(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}
