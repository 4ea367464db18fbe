package features

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func testSchema() *dataset.Schema {
	return &dataset.Schema{
		Name:          "t",
		SessionLength: 1200,
		Cat: []dataset.CatFeature{
			{Name: "unread", Cardinality: 100},
			{Name: "tab", Cardinality: 97},
		},
	}
}

func TestTimeBucketKnownValues(t *testing.T) {
	if b := TimeBucket(0); b != 0 {
		t.Fatalf("TimeBucket(0) = %d", b)
	}
	if b := TimeBucket(1); b != 0 {
		t.Fatalf("TimeBucket(1) = %d", b)
	}
	if b := TimeBucket(-5); b != 0 {
		t.Fatalf("TimeBucket(-5) = %d", b)
	}
	// 30 days ≈ e^14.76 s → bucket 49 (the paper's largest).
	if b := TimeBucket(30 * dataset.Day); b != 49 {
		t.Fatalf("TimeBucket(30d) = %d, want 49", b)
	}
	// e^3 ≈ 20.09 s → floor(50/15·3) = 10.
	if b := TimeBucket(21); b != 10 {
		t.Fatalf("TimeBucket(21) = %d, want 10", b)
	}
	// Monotone non-decreasing.
	prev := 0
	for s := int64(1); s < 40*dataset.Day; s *= 2 {
		b := TimeBucket(s)
		if b < prev {
			t.Fatalf("TimeBucket not monotone at %d", s)
		}
		prev = b
	}
}

func TestTimeBucketRangeProperty(t *testing.T) {
	f := func(s int64) bool {
		b := TimeBucket(s)
		return b >= 0 && b < NumTimeBuckets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestHourDayHelpers(t *testing.T) {
	// DefaultStart is 07:00 UTC.
	if h := HourOfDay(synth.DefaultStart); h != 7 {
		t.Fatalf("HourOfDay(start) = %d, want 7", h)
	}
	if h := HourOfDay(synth.DefaultStart + 3*3600); h != 10 {
		t.Fatalf("HourOfDay(+3h) = %d", h)
	}
	d0 := DayOfWeek(synth.DefaultStart)
	if d1 := DayOfWeek(synth.DefaultStart + 7*dataset.Day); d1 != d0 {
		t.Fatalf("DayOfWeek must have period 7")
	}
}

func TestContextVector(t *testing.T) {
	schema := testSchema()
	dim := ContextDim(schema)
	if dim != 100+97+24+7 {
		t.Fatalf("ContextDim = %d", dim)
	}
	v := ContextVector(schema, synth.DefaultStart, []int{5, 42}, nil)
	if len(v) != dim {
		t.Fatalf("vector length %d", len(v))
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	if sum != 4 { // 2 cat one-hots + hour + dow
		t.Fatalf("one-hot sum: %v", sum)
	}
	if v[5] != 1 || v[100+42] != 1 {
		t.Fatalf("categorical one-hot misplaced")
	}
	if v[100+97+7] != 1 { // hour 7
		t.Fatalf("hour one-hot misplaced")
	}
	// Reuse path must zero the buffer first.
	v2 := ContextVector(schema, synth.DefaultStart, []int{6, 42}, v)
	if v2[5] != 0 || v2[6] != 1 {
		t.Fatalf("buffer reuse failed")
	}
}

func TestSparseVecOps(t *testing.T) {
	var s SparseVec
	s.Append(0, 2)
	s.Append(3, -1)
	w := tensor.Vector{1, 10, 10, 4}
	if d := s.Dot(w); d != 2-4 {
		t.Fatalf("Dot: %v", d)
	}
}

func TestAggregatorSubsets(t *testing.T) {
	agg := NewAggregator(testSchema())
	if agg.NumSubsets() != 4 {
		t.Fatalf("2 context dims must give 4 subsets, got %d", agg.NumSubsets())
	}
	if agg.FeaturesPerSubset() != 3*4+2 {
		t.Fatalf("FeaturesPerSubset: %d", agg.FeaturesPerSubset())
	}
	if agg.NumFeatures() != 4*14 {
		t.Fatalf("NumFeatures: %d", agg.NumFeatures())
	}
}

func TestAggregatorWindowCounts(t *testing.T) {
	agg := NewAggregator(testSchema())
	base := synth.DefaultStart
	// 3 sessions: 2 days ago, 2 hours ago, 30 minutes ago; accesses on the
	// first and last.
	agg.Observe(base-2*dataset.Day, []int{0, 0}, true)
	agg.Observe(base-2*3600, []int{0, 0}, false)
	agg.Observe(base-1800, []int{0, 0}, true)

	f := agg.Features(base, []int{0, 0}, nil)
	// Subset 0 is the empty subset (all history). Layout: windows 28d, 7d,
	// 1d, 1h; each [sessions, accesses, pct].
	if f[0] != 3 || f[1] != 2 {
		t.Fatalf("28d counts: sessions=%v accesses=%v", f[0], f[1])
	}
	if f[3] != 3 || f[4] != 2 {
		t.Fatalf("7d counts: %v %v", f[3], f[4])
	}
	if f[6] != 2 || f[7] != 1 {
		t.Fatalf("1d counts: sessions=%v accesses=%v", f[6], f[7])
	}
	if f[9] != 1 || f[10] != 1 || f[11] != 1 {
		t.Fatalf("1h counts: %v %v %v", f[9], f[10], f[11])
	}
	// Elapsed features: last session 1800 s ago, last access 1800 s ago.
	if f[12] != 1800 || f[13] != 1800 {
		t.Fatalf("elapsed: %v %v", f[12], f[13])
	}
}

func TestAggregatorContextConditioning(t *testing.T) {
	agg := NewAggregator(testSchema())
	base := synth.DefaultStart
	agg.Observe(base-3600, []int{5, 1}, true)  // unread=5, tab=1
	agg.Observe(base-1800, []int{9, 2}, false) // unread=9, tab=2

	// Query with context {unread=5, tab=2}: the unread-subset counts must
	// see only the first session, the tab-subset only the second.
	f := agg.Features(base, []int{5, 2}, nil)
	per := agg.FeaturesPerSubset()
	// Subset order is enumeration of bitmasks: 0={}, 1={unread}, 2={tab},
	// 3={unread, tab}.
	unreadBase := 1 * per
	tabBase := 2 * per
	bothBase := 3 * per
	if f[unreadBase] != 1 || f[unreadBase+1] != 1 {
		t.Fatalf("unread-subset counts wrong: %v %v", f[unreadBase], f[unreadBase+1])
	}
	if f[tabBase] != 1 || f[tabBase+1] != 0 {
		t.Fatalf("tab-subset counts wrong: %v %v", f[tabBase], f[tabBase+1])
	}
	if f[bothBase] != 0 {
		t.Fatalf("both-subset should have no matches: %v", f[bothBase])
	}
	// Elapsed-access for the tab subset: no access with tab=2 → capped.
	if f[tabBase+13] != float64(30*dataset.Day) {
		t.Fatalf("tab-subset elapsed access should be capped: %v", f[tabBase+13])
	}
}

func TestAggregatorExcludesCurrentTimestamp(t *testing.T) {
	// Features at time ts must not include a session observed at exactly
	// ts (no label leakage).
	agg := NewAggregator(testSchema())
	ts := synth.DefaultStart
	agg.Observe(ts, []int{0, 0}, true)
	f := agg.Features(ts, []int{0, 0}, nil)
	if f[0] != 0 || f[1] != 0 {
		t.Fatalf("current-timestamp session leaked into features: %v %v", f[0], f[1])
	}
	if f[12] != float64(30*dataset.Day) {
		t.Fatalf("elapsed must be capped when only concurrent session exists: %v", f[12])
	}
}

func TestAggregatorOrderEnforced(t *testing.T) {
	agg := NewAggregator(testSchema())
	agg.Observe(100, []int{0, 0}, false)
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-order Observe must panic")
		}
	}()
	agg.Observe(50, []int{0, 0}, false)
}

func TestAggregatorCostCounters(t *testing.T) {
	agg := NewAggregator(testSchema())
	agg.Observe(100, []int{1, 2}, true)
	agg.Observe(200, []int{1, 3}, false)
	if agg.KeyCount() == 0 {
		t.Fatalf("KeyCount must grow with distinct contexts")
	}
	if agg.StateBytes() <= 0 {
		t.Fatalf("StateBytes must be positive")
	}
}

func TestBuilderSessionExamples(t *testing.T) {
	schema := testSchema()
	b := NewBuilder(schema)
	u := &dataset.User{ID: 1}
	base := synth.DefaultStart
	for i := 0; i < 10; i++ {
		u.Sessions = append(u.Sessions, dataset.Session{
			Timestamp: base + int64(i)*3600,
			Access:    i%3 == 0,
			Cat:       []int{i % 100, (i * 7) % 97},
		})
	}
	exs := b.BuildUser(u)
	if len(exs) != 10 {
		t.Fatalf("example count: %d", len(exs))
	}
	for i, ex := range exs {
		if len(ex.Dense) != b.DenseDim() {
			t.Fatalf("dense dim: got %d want %d", len(ex.Dense), b.DenseDim())
		}
		for _, idx := range ex.Sparse.Idx {
			if int(idx) >= b.SparseDim() || idx < 0 {
				t.Fatalf("sparse index %d out of space %d", idx, b.SparseDim())
			}
		}
		if ex.Label != (i%3 == 0) {
			t.Fatalf("label mismatch at %d", i)
		}
	}
}

func TestBuilderMinTsFilters(t *testing.T) {
	schema := testSchema()
	b := NewBuilder(schema)
	base := synth.DefaultStart
	b.MinTs = base + 5*3600
	u := &dataset.User{ID: 1}
	for i := 0; i < 10; i++ {
		u.Sessions = append(u.Sessions, dataset.Session{
			Timestamp: base + int64(i)*3600,
			Cat:       []int{0, 0},
		})
	}
	exs := b.BuildUser(u)
	if len(exs) != 5 {
		t.Fatalf("MinTs filter: got %d examples", len(exs))
	}
	// But history before MinTs must still inform features: the first
	// emitted example must see 5 prior sessions in its 28d window.
	if exs[0].Dense[len(schema.Cat)+2] != 5 { // first agg feature after context block
		t.Fatalf("warm-up history missing: %v", exs[0].Dense)
	}
}

func TestBuilderAblationDims(t *testing.T) {
	schema := testSchema()
	b := NewBuilder(schema)

	b.Set = FeatureSet{Context: true}
	cOnly := b.DenseDim()
	b.Set = FeatureSet{Context: true, Elapsed: true}
	ec := b.DenseDim()
	b.Set = FullFeatures()
	full := b.DenseDim()
	if !(cOnly < ec && ec < full) {
		t.Fatalf("ablation dims must grow: %d %d %d", cOnly, ec, full)
	}

	// Dims must match emitted vectors in every configuration.
	u := &dataset.User{ID: 1, Sessions: []dataset.Session{
		{Timestamp: synth.DefaultStart, Cat: []int{1, 2}},
		{Timestamp: synth.DefaultStart + 100, Cat: []int{3, 4}, Access: true},
	}}
	for _, set := range []FeatureSet{
		{Context: true},
		{Context: true, Elapsed: true},
		FullFeatures(),
	} {
		b.Set = set
		exs := b.BuildUser(u)
		for _, ex := range exs {
			if len(ex.Dense) != b.DenseDim() {
				t.Fatalf("set %+v: dense %d want %d", set, len(ex.Dense), b.DenseDim())
			}
		}
	}
}

func TestBuilderTimeshift(t *testing.T) {
	cfg := synth.DefaultTimeshift()
	cfg.Users = 50
	d := synth.GenerateTimeshift(cfg)
	b := NewBuilder(d.Schema)
	perUser := b.BuildDataset(d)
	if len(perUser) != 50 {
		t.Fatalf("per-user groups: %d", len(perUser))
	}
	var exs []Example
	for _, u := range perUser {
		exs = append(exs, u...)
	}
	if len(exs) == 0 {
		t.Fatalf("no timeshift examples")
	}
	for _, ex := range exs {
		if len(ex.Dense) != b.DenseDim() {
			t.Fatalf("timeshift dense dim: got %d want %d", len(ex.Dense), b.DenseDim())
		}
		for _, idx := range ex.Sparse.Idx {
			if int(idx) >= b.SparseDim() {
				t.Fatalf("timeshift sparse index out of range")
			}
		}
	}
	// Labels must match the generator's windows.
	want := 0
	for _, u := range d.Users {
		for _, w := range u.Windows {
			if w.Accessed {
				want++
			}
		}
	}
	got := 0
	for _, ex := range exs {
		if ex.Label {
			got++
		}
	}
	if got != want {
		t.Fatalf("timeshift labels: got %d positives, want %d", got, want)
	}
}

func TestTimeshiftNoFutureLeakage(t *testing.T) {
	// An accessed window's own sessions must not be visible to its
	// features: verify the 1h-window session count at prediction time is
	// always computed strictly before the peak window opens.
	cfg := synth.DefaultTimeshift()
	cfg.Users = 20
	d := synth.GenerateTimeshift(cfg)
	b := NewBuilder(d.Schema)
	for _, u := range d.Users {
		exs := b.BuildUser(u)
		for _, ex := range exs {
			// Prediction time is TimeshiftLead before window start.
			for _, w := range u.Windows {
				if ex.Ts == w.Start-b.TimeshiftLead && w.Accessed {
					// Feature vector may not reflect sessions at/after
					// prediction time; spot-check via elapsed-session ≥ 0.
					if ex.Ts >= w.Start {
						t.Fatalf("prediction after window start")
					}
				}
			}
		}
	}
}

func TestAggregatorMatchesBruteForce(t *testing.T) {
	// Property: streaming window counts equal a brute-force recount.
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		schema := &dataset.Schema{
			Name: "p", SessionLength: 600,
			Cat: []dataset.CatFeature{{Name: "a", Cardinality: 3}},
		}
		agg := NewAggregator(schema)
		type obs struct {
			ts     int64
			cat    int
			access bool
		}
		var history []obs
		base := synth.DefaultStart
		ts := base
		for i := 0; i < 60; i++ {
			ts += int64(rng.Intn(90000) + 1)
			cat := rng.Intn(3)
			// Compute features and verify against brute force.
			f := agg.Features(ts, []int{cat}, nil)
			for wi, w := range AggWindows {
				var sess, acc int
				for _, h := range history {
					if h.ts >= ts-w && h.ts < ts {
						sess++
						if h.access {
							acc++
						}
					}
				}
				if f[wi*3] != float64(sess) || f[wi*3+1] != float64(acc) {
					return false
				}
				// Subset {a}: conditioned on cat.
				var sessC, accC int
				for _, h := range history {
					if h.cat == cat && h.ts >= ts-w && h.ts < ts {
						sessC++
						if h.access {
							accC++
						}
					}
				}
				per := agg.FeaturesPerSubset()
				if f[per+wi*3] != float64(sessC) || f[per+wi*3+1] != float64(accC) {
					return false
				}
			}
			access := rng.Bernoulli(0.3)
			agg.Observe(ts, []int{cat}, access)
			history = append(history, obs{ts, cat, access})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeBucketBoundaryMath(t *testing.T) {
	// Bucket boundaries: bucket b covers [e^(15b/50), e^(15(b+1)/50)).
	// Small buckets contain no integers at all; only check buckets whose
	// range includes the candidate integer.
	for b := 1; b < NumTimeBuckets-1; b++ {
		lo := int64(math.Ceil(math.Exp(float64(b) * 15 / 50)))
		hi := math.Exp(float64(b+1) * 15 / 50)
		if float64(lo) >= hi {
			continue // empty integer range
		}
		if got := TimeBucket(lo); got != b {
			t.Fatalf("bucket %d lower bound %d mapped to %d", b, lo, got)
		}
	}
}
