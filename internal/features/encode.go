// Package features implements the feature engineering of §5.2: one-hot
// encoding of categorical context, hour-of-day and day-of-week time
// features, the log-bucketing transform T(·) for elapsed times, and the
// time-windowed aggregation engine ((28d, 7d, 1d, 1h) × every subset of the
// context dimensions) that traditional models depend on — and that the
// paper's RNN hidden state renders obsolete.
package features

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// NumTimeBuckets is the number of log-scale buckets for elapsed-time
// features (§5.3: 50 buckets).
const NumTimeBuckets = 50

// timeBucketScale is 50/15; the largest representable elapsed time
// (30 days ≈ e^14.76 s) lands in bucket 49.
const timeBucketScale = 50.0 / 15.0

// TimeBucket returns ⌊(50/15)·ln(t)⌋ clamped to [0, NumTimeBuckets),
// the paper's bucketization of elapsed seconds (§5.3, §6.1). Non-positive
// inputs map to bucket 0 (the paper feeds T(0) for the first session).
func TimeBucket(seconds int64) int {
	if seconds <= 1 {
		return 0
	}
	b := int(timeBucketScale * math.Log(float64(seconds)))
	if b < 0 {
		return 0
	}
	if b >= NumTimeBuckets {
		return NumTimeBuckets - 1
	}
	return b
}

// HoursInDay and DaysInWeek size the one-hot time features.
const (
	HoursInDay = 24
	DaysInWeek = 7
)

// HourOfDay returns the UTC hour 0-23 of ts.
func HourOfDay(ts int64) int { return int((ts % dataset.Day) / 3600) }

// DayOfWeek returns 0-6 for ts (arbitrary but fixed phase; only the 7-day
// period matters to the models).
func DayOfWeek(ts int64) int { return int((ts / dataset.Day) % 7) }

// ContextDim returns the length of the dense per-session context vector
// used as the RNN's f_i: one-hot categoricals plus one-hot hour and day
// (§6.1 "Feature extraction").
func ContextDim(schema *dataset.Schema) int {
	return schema.CatDim() + HoursInDay + DaysInWeek
}

// ContextVector writes the dense context vector for a session into dst
// (length ContextDim) and returns it. Pass a nil dst to allocate.
func ContextVector(schema *dataset.Schema, ts int64, cat []int, dst tensor.Vector) tensor.Vector {
	dim := ContextDim(schema)
	if dst == nil {
		dst = tensor.NewVector(dim)
	} else {
		dst.Zero()
	}
	off := 0
	for i, c := range schema.Cat {
		dst[off+cat[i]] = 1
		off += c.Cardinality
	}
	dst[off+HourOfDay(ts)] = 1
	off += HoursInDay
	dst[off+DayOfWeek(ts)] = 1
	return dst
}

// ContextVector32 is ContextVector for the f32 serving tier. The context
// features are pure one-hots, so the f32 vector is exactly equal to the
// f64 one (no rounding is involved).
func ContextVector32(schema *dataset.Schema, ts int64, cat []int, dst tensor.Vector32) tensor.Vector32 {
	dim := ContextDim(schema)
	if dst == nil {
		dst = tensor.NewVector32(dim)
	} else {
		dst.Zero()
	}
	off := 0
	for i, c := range schema.Cat {
		dst[off+cat[i]] = 1
		off += c.Cardinality
	}
	dst[off+HourOfDay(ts)] = 1
	off += HoursInDay
	dst[off+DayOfWeek(ts)] = 1
	return dst
}

// SparseVec is a sparse feature vector for the logistic-regression design
// matrix, whose one-hot blocks would waste memory stored densely.
type SparseVec struct {
	Idx []int32
	Val []float64
}

// Append adds one (index, value) pair.
func (s *SparseVec) Append(idx int, val float64) {
	s.Idx = append(s.Idx, int32(idx))
	s.Val = append(s.Val, val)
}

// Dot returns the inner product with a dense weight vector.
func (s *SparseVec) Dot(w tensor.Vector) float64 {
	var sum float64
	for i, idx := range s.Idx {
		sum += w[idx] * s.Val[i]
	}
	return sum
}
