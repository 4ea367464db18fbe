package features

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
)

// Window lengths for time-based aggregations (§5.2): 28 days, 7 days,
// 1 day, 1 hour.
var AggWindows = []int64{28 * dataset.Day, 7 * dataset.Day, dataset.Day, 3600}

// Aggregator maintains one user's streaming aggregation state: for every
// subset of the context dimensions and every projected context value it
// tracks the timestamped access history, from which it serves
//
//   - number of sessions, number of accesses and their ratio per time
//     window (4 windows × every context subset), and
//   - time elapsed since the last session and since the last access,
//     conditioned on the same context subsets (§5.2).
//
// This is the "specialized infrastructure" whose serving cost §9 measures
// at roughly two orders of magnitude above the model computation: a
// prediction needs one lookup per (window × subset) group, and the backing
// store must key every combination of context values per user. The
// companion package internal/serving reuses Aggregator to account those
// costs; the RNN replaces all of it with one hidden-state lookup.
type Aggregator struct {
	subsets [][]int // index subsets of schema.Cat, including the empty subset
	// series maps a (subset, projected values) key to that slice of
	// history.
	series map[uint64]*aggSeries
}

type aggSeries struct {
	ts        []int64 // session timestamps, ascending
	accPrefix []int32 // accPrefix[i] = number of accesses among ts[:i]
	lastAcc   int64   // timestamp of last access, 0 if none
}

// NewAggregator returns an empty aggregation state for one user under the
// given schema. Subsets are every subset of the categorical context
// dimensions (2^|Cat| of them, the paper's "all (time window) × (matching
// subset of context) combinations").
func NewAggregator(schema *dataset.Schema) *Aggregator {
	n := len(schema.Cat)
	if n > 8 {
		panic(fmt.Sprintf("features: %d context dims would enumerate %d subsets", n, 1<<n))
	}
	subsets := make([][]int, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		var sub []int
		for d := 0; d < n; d++ {
			if mask&(1<<d) != 0 {
				sub = append(sub, d)
			}
		}
		subsets = append(subsets, sub)
	}
	return &Aggregator{subsets: subsets, series: make(map[uint64]*aggSeries)}
}

// NumSubsets returns the number of context subsets tracked.
func (a *Aggregator) NumSubsets() int { return len(a.subsets) }

// FeaturesPerSubset is the number of aggregation features emitted per
// context subset: 3 per window (sessions, accesses, ratio) plus 2 elapsed
// times.
func (a *Aggregator) FeaturesPerSubset() int { return 3*len(AggWindows) + 2 }

// NumFeatures returns the total aggregation feature count.
func (a *Aggregator) NumFeatures() int { return a.NumSubsets() * a.FeaturesPerSubset() }

// key builds the map key for a subset and the current context values.
func (a *Aggregator) key(subsetIdx int, cat []int) uint64 {
	k := uint64(subsetIdx)
	for _, d := range a.subsets[subsetIdx] {
		k = k*131 + uint64(cat[d]) + 1
	}
	return k
}

// maxElapsed caps elapsed-time features at the 30-day observation window.
const maxElapsed = 30 * dataset.Day

// Features computes the aggregation feature vector at time ts for a session
// with context cat, using only previously Observed history. dst must have
// length NumFeatures (or be nil to allocate). Layout per subset:
// [sessions_w, accesses_w, pct_w] for each window, then elapsed-since-
// session, elapsed-since-access (both in seconds, capped at 30 days; the
// cap also stands in for "never").
func (a *Aggregator) Features(ts int64, cat []int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, a.NumFeatures())
	}
	pos := 0
	for si := range a.subsets {
		s := a.series[a.key(si, cat)]
		for _, w := range AggWindows {
			var sessions, accesses int
			if s != nil {
				lo := sort.Search(len(s.ts), func(i int) bool { return s.ts[i] >= ts-w })
				hi := sort.Search(len(s.ts), func(i int) bool { return s.ts[i] >= ts })
				sessions = hi - lo
				accesses = int(s.accPrefix[hi] - s.accPrefix[lo])
			}
			dst[pos] = float64(sessions)
			dst[pos+1] = float64(accesses)
			if sessions > 0 {
				dst[pos+2] = float64(accesses) / float64(sessions)
			} else {
				dst[pos+2] = 0
			}
			pos += 3
		}
		elapsedSession := int64(maxElapsed)
		elapsedAccess := int64(maxElapsed)
		if s != nil && len(s.ts) > 0 && s.ts[len(s.ts)-1] < ts {
			elapsedSession = ts - s.ts[len(s.ts)-1]
		}
		if s != nil && s.lastAcc != 0 && s.lastAcc < ts {
			elapsedAccess = ts - s.lastAcc
		}
		if elapsedSession > maxElapsed {
			elapsedSession = maxElapsed
		}
		if elapsedAccess > maxElapsed {
			elapsedAccess = maxElapsed
		}
		dst[pos] = float64(elapsedSession)
		dst[pos+1] = float64(elapsedAccess)
		pos += 2
	}
	return dst
}

// Observe appends a completed session to the history. Sessions must be
// observed in non-decreasing timestamp order.
func (a *Aggregator) Observe(ts int64, cat []int, access bool) {
	for si := range a.subsets {
		k := a.key(si, cat)
		s := a.series[k]
		if s == nil {
			s = &aggSeries{accPrefix: []int32{0}}
			a.series[k] = s
		}
		if n := len(s.ts); n > 0 && ts < s.ts[n-1] {
			panic("features: Aggregator.Observe: timestamps must be non-decreasing")
		}
		s.ts = append(s.ts, ts)
		acc := s.accPrefix[len(s.accPrefix)-1]
		if access {
			acc++
			s.lastAcc = ts
		}
		s.accPrefix = append(s.accPrefix, acc)
	}
}

// KeyCount returns the number of distinct (subset × context value) keys in
// the backing store — the per-user storage footprint driver of §9
// ("thousands of unique keys per user" in the worst case).
func (a *Aggregator) KeyCount() int { return len(a.series) }

// StateBytes estimates the resident bytes of the aggregation store: per
// key, the timestamp and prefix arrays. Used for the §9 storage-footprint
// comparison against a single 512-byte hidden state.
func (a *Aggregator) StateBytes() int64 {
	var b int64
	for range a.series {
		b += 16 // key + pointer overhead
	}
	for _, s := range a.series {
		b += int64(8*len(s.ts)) + int64(4*len(s.accPrefix)) + 8
	}
	return b
}
