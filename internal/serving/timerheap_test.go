package serving

import (
	"container/heap"
	"math/rand"
	"strconv"
	"testing"
)

// refHeap is the container/heap implementation timerHeap replaced.
type refHeap []timerEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].fireAt < h[j].fireAt }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(timerEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestTimerHeapMatchesContainerHeap interleaves random pushes and pops
// over a handful of fire times — so most entries tie — and requires the
// typed heap to pop the same session IDs in the same order as
// container/heap. Ties are where the two could differ, and tie order is
// drain order, which the parity digests depend on.
func TestTimerHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for round := 0; round < 200; round++ {
		var got timerHeap
		var want refHeap
		next := 0
		for step := 0; step < 300; step++ {
			if len(got) != len(want) {
				t.Fatalf("round %d step %d: sizes %d vs %d", round, step, len(got), len(want))
			}
			if len(got) == 0 || rng.Intn(3) != 0 {
				e := timerEntry{fireAt: int64(rng.Intn(6)), sessionID: strconv.Itoa(next)}
				next++
				got.push(e)
				heap.Push(&want, e)
				continue
			}
			g, w := got.pop(), heap.Pop(&want).(timerEntry)
			if g != w {
				t.Fatalf("round %d step %d: popped %+v, container/heap pops %+v", round, step, g, w)
			}
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(timerEntry); g != w {
				t.Fatalf("round %d drain: popped %+v, container/heap pops %+v", round, g, w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("round %d: %d entries left", round, len(got))
		}
	}
}

// TestTimerHeapAllocs pins that arming and firing a timer allocates
// nothing once the heap's backing array has grown.
func TestTimerHeapAllocs(t *testing.T) {
	var h timerHeap
	for i := 0; i < 64; i++ {
		h.push(timerEntry{fireAt: int64(i % 5), sessionID: "s"})
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e := h.pop()
		e.fireAt += 5
		h.push(e)
	}); allocs != 0 {
		t.Fatalf("push+pop: %v allocs/op, want 0", allocs)
	}
}
