package statestore

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/serving"
	"repro/internal/tensor"
)

// wireState builds a wire-format hidden state with deterministic contents.
func wireState(dim int, seed uint64, ts int64) []byte {
	rng := tensor.NewRNG(seed)
	h := tensor.NewVector(dim)
	rng.FillUniform(h, -1, 1)
	return serving.EncodeHiddenInto(nil, h, ts)
}

// evictIdle forces a deterministic idle sweep at virtual time now: every
// state whose record timestamp lags now by more than EvictAfter goes.
func evictIdle(s *Store, now int64) int {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	return s.evictIdleLocked(now)
}

func TestVolatileRoundTrip(t *testing.T) {
	for _, codec := range []Codec{CodecFloat32, CodecInt8} {
		t.Run(codec.String(), func(t *testing.T) {
			s, err := Open(Options{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			wire := wireState(16, 1, 5000)
			s.Put("h:1", wire)
			got, ok := s.Get("h:1")
			if !ok {
				t.Fatal("missing key")
			}
			if codec == CodecFloat32 {
				if !bytes.Equal(got, wire) {
					t.Fatalf("float32 store must be lossless")
				}
			} else {
				// The int8 tier must round-trip exactly like the serving
				// quantized codec: decode, quantize in float64, re-encode.
				h := tensor.NewVector(16)
				ts, ok := serving.DecodeHiddenInto(wire, h)
				if !ok {
					t.Fatal("bad wire value")
				}
				want := serving.EncodeHiddenInto(nil, serving.QuantizeRoundTrip(h), ts)
				if !bytes.Equal(got, want) {
					t.Fatalf("int8 tier disagrees with serving quantized codec")
				}
				st := s.Stats()
				if st.BytesStored >= int64(len(wire)) {
					t.Fatalf("int8 tier should shrink residency: %d vs wire %d", st.BytesStored, len(wire))
				}
			}
			if _, ok := s.Get("h:nope"); ok {
				t.Fatal("phantom key")
			}
			st := s.Stats()
			if st.Keys != 1 || st.Gets != 2 || st.Misses != 1 || st.Puts != 1 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

func TestStoreInterfaceSurface(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var iface serving.Store = s
	iface.Put("a", []byte{1, 2, 3})
	iface.Put("b", []byte{4})
	iface.Delete("a")
	iface.Delete("a") // idempotent
	keys := iface.Keys()
	if len(keys) != 1 || keys[0] != "b" {
		t.Fatalf("keys: %v", keys)
	}
	if got := iface.Stats().BytesStored; got != int64(1+1+1) { // "b" + tag + payload
		t.Fatalf("BytesStored = %d", got)
	}
}

func TestPutDoesNotRetainBuffer(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wire := wireState(8, 2, 100)
	orig := append([]byte(nil), wire...)
	s.Put("h:1", wire)
	for i := range wire {
		wire[i] = 0xFF // caller reuses its encode buffer
	}
	got, _ := s.Get("h:1")
	if !bytes.Equal(got, orig) {
		t.Fatal("store retained the caller's buffer")
	}
}

func TestIdleEviction(t *testing.T) {
	s, err := Open(Options{EvictAfter: 100, SweepEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("h:old", wireState(8, 1, 1000))
	s.Put("h:warm", wireState(8, 2, 1950))
	// Advance the virtual clock past the horizon for h:old and force a
	// sweep via Put volume (SweepEvery=4).
	for i := 0; i < 6; i++ {
		s.Put(fmt.Sprintf("h:new%d", i), wireState(8, 3, 2000))
	}
	if _, ok := s.Get("h:old"); ok {
		t.Fatal("idle state must be evicted (lastTS 1000 << vnow 2000 - 100)")
	}
	if _, ok := s.Get("h:warm"); !ok {
		t.Fatal("warm state must survive")
	}
	if ev := s.Lifecycle().IdleEvictions; ev != 1 {
		t.Fatalf("IdleEvictions = %d", ev)
	}
}

func TestEvictIdleExplicit(t *testing.T) {
	s, err := Open(Options{EvictAfter: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("h:%d", i), wireState(4, uint64(i), int64(100+i)))
	}
	// now=200: horizon 150, every state (ts 100..109) goes.
	if n := evictIdle(s, 200); n != 10 {
		t.Fatalf("evicted %d, want 10", n)
	}
	if st := s.Stats(); st.Keys != 0 || st.BytesStored != 0 {
		t.Fatalf("stats after full eviction: %+v", st)
	}
}

func TestBudgetSweepHoldsCeiling(t *testing.T) {
	const budget = 4 << 10
	s, err := Open(Options{MemBudget: budget, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2000; i++ {
		s.Put(fmt.Sprintf("h:%d", i), wireState(16, uint64(i), int64(i)))
		if got := s.Stats().BytesStored; got > budget {
			t.Fatalf("put %d: BytesStored %d exceeds budget %d", i, got, budget)
		}
	}
	st := s.Stats()
	if st.Keys == 0 {
		t.Fatal("budget sweep evicted everything")
	}
	if s.Lifecycle().BudgetEvictions == 0 {
		t.Fatal("no budget evictions recorded")
	}
	// Recently referenced entries get a second chance: the newest key was
	// just written and must still be resident.
	if _, ok := s.Get("h:1999"); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestRecoveryRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()
	// SnapshotEvery small enough that the run crosses several snapshot +
	// truncation cycles, so recovery exercises snapshot+tail, not just WAL.
	s, err := Open(Options{Dir: dir, SnapshotEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("h:%d", i%40) // overwrites exercise idempotent replay
		v := wireState(12, uint64(i), int64(1000+i))
		s.Put(k, v)
		want[k] = append([]byte(nil), v...)
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("h:%d", i)
		s.Delete(k)
		delete(want, k)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ls := r.Lifecycle()
	if ls.ReplayedRecords == 0 {
		t.Fatalf("recovery replayed nothing: %+v", ls)
	}
	if ls.RecoveredKeys != len(want) {
		t.Fatalf("recovered %d keys, want %d", ls.RecoveredKeys, len(want))
	}
	keys := r.Keys()
	sort.Strings(keys)
	if len(keys) != len(want) {
		t.Fatalf("keys: %v", keys)
	}
	for k, v := range want {
		got, ok := r.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %s not byte-identical after recovery", k)
		}
	}
	// The deleted keys must stay deleted (the WAL logs deletions).
	for i := 0; i < 10; i++ {
		if _, ok := r.Get(fmt.Sprintf("h:%d", i)); ok {
			t.Fatalf("deleted key h:%d resurrected by recovery", i)
		}
	}
	// Incremental BytesStored must agree with a from-scratch recount.
	var recount int64
	for _, k := range keys {
		v, _ := r.Get(k)
		recount += int64(len(k) + 1 + len(v)) // tag byte + raw payload
	}
	if got := r.Stats().BytesStored; got != recount {
		t.Fatalf("BytesStored %d != recount %d", got, recount)
	}
}

func TestReopenWithDifferentCodec(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Codec: CodecFloat32})
	if err != nil {
		t.Fatal(err)
	}
	wire := wireState(8, 7, 123)
	s.Put("h:1", wire)
	s.Close()

	// Tagged values are self-describing: an int8 reopen still serves the
	// float32 entry losslessly, and new puts use the new tier.
	r, err := Open(Options{Dir: dir, Codec: CodecInt8})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, ok := r.Get("h:1")
	if !ok || !bytes.Equal(got, wire) {
		t.Fatal("pre-existing float32 entry must decode verbatim")
	}
	r.Put("h:2", wire)
	st := r.Stats()
	if st.Keys != 2 {
		t.Fatalf("keys: %d", st.Keys)
	}
}

func TestStatsIsIncremental(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("k", []byte{1, 2}) // 1 + tag + 2
	if got := s.Stats().BytesStored; got != 4 {
		t.Fatalf("BytesStored = %d, want 4", got)
	}
	s.Put("k", []byte{1, 2, 3, 4}) // overwrite
	if got := s.Stats().BytesStored; got != 6 {
		t.Fatalf("BytesStored = %d, want 6", got)
	}
	s.Delete("k")
	if got := s.Stats().BytesStored; got != 0 {
		t.Fatalf("BytesStored = %d, want 0", got)
	}
}
