package serving

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// TestStreamDuplicateSessionID pins what a start does when its session ID
// is still pending: the new start replaces the buffered session (user,
// start and categories), accesses land on the replacement, and the first
// armed timer finalises it — exactly once, with the second timer finding
// nothing left to fire.
func TestStreamDuplicateSessionID(t *testing.T) {
	m := testModel()
	window := m.Schema.SessionLength + core.DefaultEpsilon
	start := synth.DefaultStart

	t.Run("sink", func(t *testing.T) {
		p := NewStreamProcessor(m, NewKVStore())
		var got []DueSession
		p.SetSink(func(d DueSession) { got = append(got, d) })
		p.OnSessionStart("dup", 1, start, []int{1, 2})
		p.OnSessionStart("dup", 2, start+10, []int{3, 0})
		p.OnAccess("dup", start+20)
		if p.Pending() != 1 {
			t.Fatalf("pending %d after a duplicate start, want 1", p.Pending())
		}
		p.Advance(start + window) // the first start's timer
		want := DueSession{UserID: 2, Start: start + 10, Cat: []int{3, 0}, Accessed: true}
		if len(got) != 1 || !sameDue(got[0], want) {
			t.Fatalf("first timer delivered %+v, want exactly %+v", got, want)
		}
		p.Flush()
		if len(got) != 1 || p.Pending() != 0 {
			t.Fatalf("after flush: %d delivered, %d pending; want 1 and 0", len(got), p.Pending())
		}
	})

	t.Run("inline", func(t *testing.T) {
		store := NewKVStore()
		p := NewStreamProcessor(m, store)
		p.OnSessionStart("dup", 1, start, []int{1, 2})
		p.OnSessionStart("dup", 2, start+10, []int{3, 0})
		p.Flush()
		if p.UpdatesRun != 1 {
			t.Fatalf("UpdatesRun %d, want 1", p.UpdatesRun)
		}
		if _, ok := store.Get(hiddenKey(1)); ok {
			t.Fatal("the replaced session was finalised")
		}
		raw, ok := store.Get(hiddenKey(2))
		if !ok {
			t.Fatal("the replacing session was not finalised")
		}
		if _, ts, _ := DecodeHidden(raw); ts != start+10 {
			t.Fatalf("stored timestamp %d, want %d", ts, start+10)
		}
	})
}

// TestSinkKeepsCat pins that a DueSession handed to a sink owns its
// categories: a sink may keep due sessions (a capture, a queue) while the
// processor ingests thousands more, and the caller may reuse its category
// buffer the moment OnSessionStart returns, as the wire decoder does.
func TestSinkKeepsCat(t *testing.T) {
	m := testModel()
	window := m.Schema.SessionLength + core.DefaultEpsilon
	p := NewStreamProcessor(m, NewKVStore())
	var got []DueSession
	p.SetSink(func(d DueSession) { got = append(got, d) })

	const sessions = 10_000 + 16
	catOf := func(i int) []int {
		c := make([]int, i%5) // includes empty categories
		for j := range c {
			c[j] = (i*7 + j*3) % 11
		}
		return c
	}
	scratch := make([]int, 0, 8)
	ts := synth.DefaultStart
	for i := 0; i < sessions; i++ {
		ts += 17
		scratch = append(scratch[:0], catOf(i)...)
		p.OnSessionStart(fmt.Sprintf("s%d", i), i%97, ts, scratch)
		for j := range scratch {
			scratch[j] = -1 // the caller reuses its buffer
		}
	}
	p.Advance(ts + window)
	if len(got) != sessions {
		t.Fatalf("%d sessions delivered, want %d", len(got), sessions)
	}
	for i, d := range got {
		if want := catOf(i); !slices.Equal(d.Cat, want) {
			t.Fatalf("session %d: Cat %v, want %v", i, d.Cat, want)
		}
	}
}

func sameDue(a, b DueSession) bool {
	return a.UserID == b.UserID && a.Start == b.Start && a.Accessed == b.Accessed && slices.Equal(a.Cat, b.Cat)
}

// TestStreamIngestAllocs pins the ingest front's steady state: a start and
// an access per session, with IDs handed over as []byte the way the wire
// decoder has them, cost no allocation per session beyond the amortised
// arena refills (one per ~4 KiB of IDs and per ~1 024 category ints).
func TestStreamIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	m := testModel()
	window := m.Schema.SessionLength + core.DefaultEpsilon
	p := NewStreamProcessor(m, NewKVStore())
	delivered := 0
	p.SetSink(func(DueSession) { delivered++ })

	ids := make([][]byte, 4096)
	for i := range ids {
		ids[i] = fmt.Appendf(nil, "u%d-s%d", i%97, i)
	}
	cat := []int{1, 2}
	step := window / 64 // about 64 sessions in flight
	ts := synth.DefaultStart
	next := 0
	const perRun = 1000
	ingest := func() {
		for range perRun {
			id := ids[next%len(ids)]
			next++
			ts += step
			p.OnSessionStart(string(id), next%97, ts, cat)
			p.OnAccess(string(id), ts+1)
		}
	}
	for range 10 {
		ingest() // grow the slab, the free list, the map and the timer heap
	}
	perSession := testing.AllocsPerRun(50, ingest) / perRun
	t.Logf("%.4f allocs/session, %d pending", perSession, p.Pending())
	if perSession >= 0.01 {
		t.Errorf("%.4f allocs/session, want < 0.01 (arena refills only)", perSession)
	}
	if delivered == 0 {
		t.Fatal("no session was delivered")
	}
}
