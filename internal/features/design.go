package features

import (
	"math"

	"repro/internal/dataset"
)

// Example is one labelled example for the traditional models, in both the
// dense layout consumed by GBDT (§5.4 skips one-hot encoding) and the
// sparse one-hot layout consumed by logistic regression (§5.3).
type Example struct {
	// Ts is the prediction time (session start, or the prediction point
	// ahead of a peak window for timeshift).
	Ts     int64
	Label  bool
	Dense  []float64
	Sparse SparseVec
}

// FeatureSet selects which engineered feature groups are included,
// mirroring the Table 5 ablation: C = contextual features, E = time-elapsed
// features, A = time-based aggregations.
type FeatureSet struct {
	Context      bool // C
	Elapsed      bool // E
	Aggregations bool // A
}

// FullFeatures is the A+E+C configuration used for the headline baselines.
func FullFeatures() FeatureSet {
	return FeatureSet{Context: true, Elapsed: true, Aggregations: true}
}

// Builder converts user access logs into model-ready examples, replaying
// each user's history through an Aggregator so every example sees exactly
// the features that would have been servable at its prediction time.
type Builder struct {
	Schema *dataset.Schema
	Set    FeatureSet
	// MinTs drops examples before this timestamp (training uses the last
	// 7 days so aggregation features are warmed up, §5.3; evaluation uses
	// the last 7 days of the window, §8).
	MinTs int64
	// TimeshiftLead is how far before the peak-window start the timeshift
	// prediction is made (several hours in §3.2.1; 6h by default here).
	TimeshiftLead int64
	// FeatureDelay is the visibility horizon for history: a session's
	// access flag only exists once its fixed window closes, so features at
	// time t may include only sessions with timestamp < t − FeatureDelay.
	// This is the same δ the RNN's hidden updates obey (§6.1 "Update
	// delays"); the paper serves aggregations through the same stream
	// pipeline, so both model families see equally delayed history.
	FeatureDelay int64
}

// NewBuilder returns a Builder with the full feature set, no time filter,
// and the schema's δ (session length + processing lag) as the feature
// delay.
func NewBuilder(schema *dataset.Schema) *Builder {
	return &Builder{
		Schema:        schema,
		Set:           FullFeatures(),
		TimeshiftLead: 6 * 3600,
		FeatureDelay:  schema.SessionLength + 60,
	}
}

// aggFeaturesPerSubset mirrors Aggregator layout: 3 per window + 2 elapsed.
const perWindowFeats = 3

// DenseDim returns the GBDT feature-vector length for the builder's
// configuration.
func (b *Builder) DenseDim() int {
	if b.Schema.HasPeakWindows {
		return b.timeshiftDenseDim()
	}
	n := 0
	if b.Set.Context {
		n += len(b.Schema.Cat) + 2 // raw category codes + hour + dow
	}
	subsets := 1 << len(b.Schema.Cat)
	if b.Set.Aggregations {
		n += subsets * len(AggWindows) * perWindowFeats
	}
	if b.Set.Elapsed {
		n += subsets * 2
	}
	return n
}

// SparseDim returns the LR feature-space size for the builder's
// configuration.
func (b *Builder) SparseDim() int {
	if b.Schema.HasPeakWindows {
		return b.timeshiftSparseDim()
	}
	n := 0
	if b.Set.Context {
		n += b.Schema.CatDim() + HoursInDay + DaysInWeek
	}
	subsets := 1 << len(b.Schema.Cat)
	if b.Set.Aggregations {
		n += subsets * len(AggWindows) * perWindowFeats
	}
	if b.Set.Elapsed {
		n += subsets * 2 * NumTimeBuckets
	}
	return n
}

// BuildUser replays one user's history and returns the examples whose
// prediction time is ≥ MinTs. For session datasets each example is one
// session; for timeshift datasets each example is one peak window,
// predicted TimeshiftLead seconds before the window opens using session
// history and past window labels only.
func (b *Builder) BuildUser(u *dataset.User) []Example {
	if b.Schema.HasPeakWindows {
		return b.buildTimeshiftUser(u)
	}
	agg := NewAggregator(b.Schema)
	var out []Example
	aggBuf := make([]float64, agg.NumFeatures())
	pending := 0 // next session not yet folded into the aggregation state
	for _, s := range u.Sessions {
		// Fold in sessions whose windows have closed by prediction time.
		for pending < len(u.Sessions) && u.Sessions[pending].Timestamp < s.Timestamp-b.FeatureDelay {
			ps := u.Sessions[pending]
			agg.Observe(ps.Timestamp, ps.Cat, ps.Access)
			pending++
		}
		if s.Timestamp >= b.MinTs {
			agg.Features(s.Timestamp, s.Cat, aggBuf)
			ex := Example{Ts: s.Timestamp, Label: s.Access}
			b.emitSession(&ex, s.Timestamp, s.Cat, aggBuf)
			out = append(out, ex)
		}
	}
	return out
}

// emitSession fills both feature layouts for a session example.
func (b *Builder) emitSession(ex *Example, ts int64, cat []int, agg []float64) {
	subsets := 1 << len(b.Schema.Cat)
	perSubset := len(AggWindows)*perWindowFeats + 2

	dense := make([]float64, 0, b.DenseDim())
	var sp SparseVec
	spOff := 0

	if b.Set.Context {
		for _, v := range cat {
			dense = append(dense, float64(v))
		}
		dense = append(dense, float64(HourOfDay(ts)), float64(DayOfWeek(ts)))

		off := 0
		for i, c := range b.Schema.Cat {
			sp.Append(spOff+off+cat[i], 1)
			off += c.Cardinality
		}
		sp.Append(spOff+off+HourOfDay(ts), 1)
		off += HoursInDay
		sp.Append(spOff+off+DayOfWeek(ts), 1)
		spOff += b.Schema.CatDim() + HoursInDay + DaysInWeek
	}
	if b.Set.Aggregations {
		for si := 0; si < subsets; si++ {
			base := si * perSubset
			for w := 0; w < len(AggWindows); w++ {
				sessions := agg[base+w*perWindowFeats]
				accesses := agg[base+w*perWindowFeats+1]
				pct := agg[base+w*perWindowFeats+2]
				dense = append(dense, sessions, accesses, pct)
				// LR keeps counts on a log scale for conditioning.
				idx := spOff + (si*len(AggWindows)+w)*perWindowFeats
				sp.Append(idx, math.Log1p(sessions))
				sp.Append(idx+1, math.Log1p(accesses))
				sp.Append(idx+2, pct)
			}
		}
		spOff += subsets * len(AggWindows) * perWindowFeats
	}
	if b.Set.Elapsed {
		for si := 0; si < subsets; si++ {
			base := si*perSubset + len(AggWindows)*perWindowFeats
			eSess, eAcc := agg[base], agg[base+1]
			dense = append(dense, eSess, eAcc)
			idx := spOff + si*2*NumTimeBuckets
			sp.Append(idx+TimeBucket(int64(eSess)), 1)
			sp.Append(idx+NumTimeBuckets+TimeBucket(int64(eAcc)), 1)
		}
	}
	ex.Dense = dense
	ex.Sparse = sp
}

// ---- Timeshift feature layout ----
//
// At prediction time there is no session context (§4.2): features are the
// target day-of-week, session aggregations as of the prediction point, and
// the history of past peak-window labels (counts over 28/7/1 days, overall
// rate, and elapsed time since the last accessed window).

const tsWindowFeats = 5 // pastWindows28, accessed28, accessed7, accessed1, rate

func (b *Builder) timeshiftDenseDim() int {
	n := 1 // target day of week
	subsets := 1 << len(b.Schema.Cat)
	if b.Set.Aggregations {
		n += subsets*len(AggWindows)*perWindowFeats + tsWindowFeats
	}
	if b.Set.Elapsed {
		n += subsets*2 + 1 // +1: elapsed since last accessed window
	}
	return n
}

func (b *Builder) timeshiftSparseDim() int {
	n := DaysInWeek
	subsets := 1 << len(b.Schema.Cat)
	if b.Set.Aggregations {
		n += subsets*len(AggWindows)*perWindowFeats + tsWindowFeats
	}
	if b.Set.Elapsed {
		n += subsets*2*NumTimeBuckets + NumTimeBuckets
	}
	return n
}

func (b *Builder) buildTimeshiftUser(u *dataset.User) []Example {
	agg := NewAggregator(b.Schema)
	aggBuf := make([]float64, agg.NumFeatures())
	var out []Example

	si := 0 // next session to fold into history
	var lastAccessed int64
	windows28, accessed28 := 0, 0
	var past []pastWindow // trailing 28 days of windows

	for _, w := range u.Windows {
		predTs := w.Start - b.TimeshiftLead
		// Fold in sessions whose windows closed before the prediction time.
		for si < len(u.Sessions) && u.Sessions[si].Timestamp < predTs-b.FeatureDelay {
			s := u.Sessions[si]
			agg.Observe(s.Timestamp, s.Cat, s.Access)
			si++
		}
		if w.Start >= b.MinTs {
			agg.Features(predTs, []int{1}, aggBuf) // context: the peak flag
			ex := Example{Ts: predTs, Label: w.Accessed}
			b.emitTimeshift(&ex, w.Start, aggBuf, past, lastAccessed, windows28, accessed28)
			out = append(out, ex)
		}
		past = append(past, pastWindow{start: w.Start, accessed: w.Accessed})
		windows28++
		if w.Accessed {
			accessed28++
			lastAccessed = w.Start
		}
		// Trim to 28 days.
		for len(past) > 0 && past[0].start < w.Start-28*dataset.Day {
			if past[0].accessed {
				accessed28--
			}
			windows28--
			past = past[1:]
		}
	}
	return out
}

// pastWindow records one prior peak window for the timeshift label-history
// features.
type pastWindow struct {
	start    int64
	accessed bool
}

func (b *Builder) emitTimeshift(ex *Example, winStart int64, agg []float64,
	past []pastWindow, lastAccessed int64, windows28, accessed28 int) {

	subsets := 1 << len(b.Schema.Cat)
	perSubset := len(AggWindows)*perWindowFeats + 2

	accessed7, accessed1 := 0, 0
	for _, p := range past {
		if !p.accessed {
			continue
		}
		if p.start >= winStart-7*dataset.Day {
			accessed7++
		}
		if p.start >= winStart-dataset.Day {
			accessed1++
		}
	}
	rate := 0.0
	if windows28 > 0 {
		rate = float64(accessed28) / float64(windows28)
	}
	elapsedWin := int64(maxElapsed)
	if lastAccessed != 0 && lastAccessed < winStart {
		elapsedWin = winStart - lastAccessed
	}

	dense := make([]float64, 0, b.timeshiftDenseDim())
	var sp SparseVec
	spOff := 0

	dow := DayOfWeek(winStart)
	dense = append(dense, float64(dow))
	sp.Append(dow, 1)
	spOff += DaysInWeek

	if b.Set.Aggregations {
		for s := 0; s < subsets; s++ {
			base := s * perSubset
			for w := 0; w < len(AggWindows); w++ {
				sessions := agg[base+w*perWindowFeats]
				accesses := agg[base+w*perWindowFeats+1]
				pct := agg[base+w*perWindowFeats+2]
				dense = append(dense, sessions, accesses, pct)
				idx := spOff + (s*len(AggWindows)+w)*perWindowFeats
				sp.Append(idx, math.Log1p(sessions))
				sp.Append(idx+1, math.Log1p(accesses))
				sp.Append(idx+2, pct)
			}
		}
		spOff += subsets * len(AggWindows) * perWindowFeats

		dense = append(dense, float64(windows28), float64(accessed28),
			float64(accessed7), float64(accessed1), rate)
		sp.Append(spOff, math.Log1p(float64(windows28)))
		sp.Append(spOff+1, math.Log1p(float64(accessed28)))
		sp.Append(spOff+2, math.Log1p(float64(accessed7)))
		sp.Append(spOff+3, math.Log1p(float64(accessed1)))
		sp.Append(spOff+4, rate)
		spOff += tsWindowFeats
	}
	if b.Set.Elapsed {
		for s := 0; s < subsets; s++ {
			base := s*perSubset + len(AggWindows)*perWindowFeats
			eSess, eAcc := agg[base], agg[base+1]
			dense = append(dense, eSess, eAcc)
			idx := spOff + s*2*NumTimeBuckets
			sp.Append(idx+TimeBucket(int64(eSess)), 1)
			sp.Append(idx+NumTimeBuckets+TimeBucket(int64(eAcc)), 1)
		}
		spOff += subsets * 2 * NumTimeBuckets
		dense = append(dense, float64(elapsedWin))
		sp.Append(spOff+TimeBucket(elapsedWin), 1)
	}
	ex.Dense = dense
	ex.Sparse = sp
}

// BuildDataset builds examples for every user, returning a parallel slice
// of per-user example slices (user identity is needed by some experiments).
func (b *Builder) BuildDataset(d *dataset.Dataset) [][]Example {
	out := make([][]Example, len(d.Users))
	for i, u := range d.Users {
		out[i] = b.BuildUser(u)
	}
	return out
}
