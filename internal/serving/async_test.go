package serving

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/synth"
)

// asyncTestModel builds a small untrained model (weights are
// deterministic given the seed, which is all equivalence tests need).
func asyncTestModel(t *testing.T, hidden int) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.HiddenDim = hidden
	cfg.Seed = 11
	return core.New(synth.MobileTabSchema(), cfg)
}

// TestSinkFinalizerMatchesInline proves the async seam end to end at the
// package level: routing due sessions through SetSink into a
// BatchFinalizer (batching them in arbitrary group sizes) stores states
// byte-identical to the inline synchronous drain loop.
func TestSinkFinalizerMatchesInline(t *testing.T) {
	m := asyncTestModel(t, 24)
	window := m.Schema.SessionLength + core.DefaultEpsilon

	type ev struct {
		sid    string
		user   int
		ts     int64
		cat    []int
		access bool
	}
	var evs []ev
	base := synth.DefaultStart
	for i := 0; i < 400; i++ {
		u := i % 23 // several sessions per user, some in the same drain
		evs = append(evs, ev{
			sid: fmt.Sprintf("u%d-s%d", u, i), user: u,
			ts:     base + int64(i)*97,
			cat:    []int{i % 4, i % 3},
			access: i%3 == 0,
		})
	}
	advanceEvery := 50 // periodic clock jumps make multi-session drains
	run := func(p *StreamProcessor, store Store, flushQueue func()) {
		for i, e := range evs {
			p.OnSessionStart(e.sid, e.user, e.ts, e.cat)
			if e.access {
				p.OnAccess(e.sid, e.ts+30)
			}
			if (i+1)%advanceEvery == 0 {
				p.Advance(e.ts + window + 1)
				if flushQueue != nil {
					flushQueue()
				}
			}
		}
		p.Flush()
		if flushQueue != nil {
			flushQueue()
		}
	}

	inline := NewKVStore()
	run(NewStreamProcessor(m, inline), inline, nil)

	// Async: the sink parks due sessions; the queue is flushed through the
	// batched finalizer in uneven group sizes.
	async := NewKVStore()
	p := NewStreamProcessor(m, async)
	fin := mustFinalizer(t, m, async, 8, nn.TierF64)
	var queue []DueSession
	p.SetSink(func(d DueSession) { queue = append(queue, d) })
	sizes := []int{1, 7, 3, 8, 2}
	si := 0
	flushQueue := func() {
		for len(queue) > 0 {
			n := sizes[si%len(sizes)]
			si++
			if n > len(queue) {
				n = len(queue)
			}
			fin.Finalize(queue[:n])
			queue = queue[n:]
		}
	}
	run(p, async, flushQueue)

	gotDigest, _ := StateDigest(async)
	wantDigest, _ := StateDigest(inline)
	if gotDigest != wantDigest {
		t.Fatalf("digest mismatch: async %s vs inline %s", gotDigest, wantDigest)
	}
	keys := inline.Keys()
	if len(keys) == 0 {
		t.Fatal("no states stored")
	}
	for _, k := range keys {
		a, ok1 := inline.Get(k)
		b, ok2 := async.Get(k)
		if !ok1 || !ok2 || !bytes.Equal(a, b) {
			t.Fatalf("state %s differs between inline and async paths", k)
		}
	}
}

// TestStateDigestDetectsDifferences pins the digest's sensitivity: any
// byte flip or key change must change it.
func TestStateDigestDetectsDifferences(t *testing.T) {
	a := NewKVStore()
	b := NewKVStore()
	a.Put("h:1", []byte{1, 2, 3})
	b.Put("h:1", []byte{1, 2, 3})
	if da, _ := StateDigest(a); !equalDigest(da, b) {
		t.Fatal("equal stores must digest equally")
	}
	b.Put("h:1", []byte{1, 2, 4})
	if da, _ := StateDigest(a); equalDigest(da, b) {
		t.Fatal("value flip must change the digest")
	}
	b.Put("h:1", []byte{1, 2, 3})
	b.Put("h:2", []byte{9})
	if da, _ := StateDigest(a); equalDigest(da, b) {
		t.Fatal("extra key must change the digest")
	}
}

// equalDigest reports whether digest equals store's current digest.
func equalDigest(digest string, store Store) bool {
	d, _ := StateDigest(store)
	return digest == d
}
