package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestPRCurvePerfectClassifier(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	curve := PRCurve(scores, labels)
	if len(curve) != 4 {
		t.Fatalf("curve length: %d", len(curve))
	}
	// Every prefix of positives has precision 1.
	if curve[0].Precision != 1 || curve[0].Recall != 0.5 {
		t.Fatalf("first point: %+v", curve[0])
	}
	if curve[1].Precision != 1 || curve[1].Recall != 1 {
		t.Fatalf("second point: %+v", curve[1])
	}
	if auc := PRAUC(scores, labels); auc != 1 {
		t.Fatalf("perfect PR-AUC: got %v", auc)
	}
}

func TestPRCurveWorstClassifier(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{false, false, true, true}
	auc := PRAUC(scores, labels)
	// Positives ranked last: AP = 0.5*(1/3 - 0) ... compute: thresholds
	// desc: after 2 negs P=0 R=0; third P=1/3 R=0.5; fourth P=1/2 R=1.
	want := (1.0/3)*0.5 + 0.5*0.5
	if math.Abs(auc-want) > 1e-12 {
		t.Fatalf("worst-case AUC: got %v, want %v", auc, want)
	}
}

func TestPRCurveTieGrouping(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []bool{true, false, true, false}
	curve := PRCurve(scores, labels)
	if len(curve) != 1 {
		t.Fatalf("tied scores must collapse to one point, got %d", len(curve))
	}
	if curve[0].Precision != 0.5 || curve[0].Recall != 1 {
		t.Fatalf("tie point: %+v", curve[0])
	}
}

func TestPRCurveNoPositives(t *testing.T) {
	if c := PRCurve([]float64{0.1, 0.9}, []bool{false, false}); c != nil {
		t.Fatalf("no positives must return nil")
	}
	if !math.IsNaN(PRAUC([]float64{0.1}, []bool{false})) {
		t.Fatalf("PRAUC with no positives must be NaN")
	}
	if c := PRCurve(nil, nil); c != nil {
		t.Fatalf("empty input must return nil")
	}
}

func TestPRCurveLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	PRCurve([]float64{1}, []bool{true, false})
}

func TestPRAUCRandomScoresNearBaseRate(t *testing.T) {
	// For random scores, AP concentrates near the positive rate.
	rng := tensor.NewRNG(1)
	const n = 20000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Bernoulli(0.2)
	}
	auc := PRAUC(scores, labels)
	if math.Abs(auc-0.2) > 0.03 {
		t.Fatalf("random-score AP should be ≈ base rate 0.2, got %v", auc)
	}
}

func TestRecallAtPrecision(t *testing.T) {
	// Scores: top 2 are positive, then mixed.
	scores := []float64{0.9, 0.8, 0.7, 0.6, 0.5}
	labels := []bool{true, true, false, true, false}
	r, thr := RecallAtPrecision(scores, labels, 1.0)
	if r != 2.0/3 || thr != 0.8 {
		t.Fatalf("recall@P=1: got (%v, %v)", r, thr)
	}
	r, _ = RecallAtPrecision(scores, labels, 0.75)
	if r != 1 {
		t.Fatalf("recall@P=0.75: got %v (precision at k=4 is 3/4)", r)
	}
	r, thr = RecallAtPrecision(scores, labels, 1.1)
	if r != 0 || !math.IsInf(thr, 1) {
		t.Fatalf("unreachable precision: got (%v, %v)", r, thr)
	}
}

func TestPrecisionRecallAt(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.7, 0.6}
	labels := []bool{true, false, true, false}
	p, r := PrecisionRecallAt(scores, labels, 0.75)
	if p != 0.5 || r != 0.5 {
		t.Fatalf("PrecisionRecallAt(0.75): got (%v, %v)", p, r)
	}
	p, r = PrecisionRecallAt(scores, labels, 2)
	if p != 0 || r != 0 {
		t.Fatalf("threshold above all scores: got (%v, %v)", p, r)
	}
}

func TestLogLoss(t *testing.T) {
	if l := LogLoss([]float64{0.5, 0.5}, []bool{true, false}); math.Abs(l-math.Ln2) > 1e-12 {
		t.Fatalf("LogLoss: got %v, want ln2", l)
	}
	if l := LogLoss([]float64{1, 0}, []bool{true, false}); l > 1e-10 {
		t.Fatalf("perfect predictions: got %v", l)
	}
	if l := LogLoss([]float64{0}, []bool{true}); math.IsInf(l, 0) {
		t.Fatalf("clamping must keep loss finite")
	}
	if l := LogLoss(nil, nil); l != 0 {
		t.Fatalf("empty LogLoss: got %v", l)
	}
}

func TestHistogram(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 100, -5}
	h := Histogram(vals, 5, 0, 5)
	total := 0
	for _, b := range h {
		total += b.Count
	}
	if total != len(vals) {
		t.Fatalf("histogram must count every value (clamping): %d", total)
	}
	// Bin width 1: 0→bin0, -5 clamps into bin0; 4→bin4, and 5, 100 clamp
	// into bin4.
	if h[0].Count != 2 {
		t.Fatalf("bin0: got %d, want 2 (0 and clamped -5): %+v", h[0].Count, h)
	}
	if h[4].Count != 3 {
		t.Fatalf("bin4: got %d, want 3 (4 plus clamped 5, 100): %+v", h[4].Count, h)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on bad spec")
		}
	}()
	Histogram(nil, 0, 0, 1)
}

func TestQuantileAndMean(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if m := Mean(vals); m != 3 {
		t.Fatalf("mean: %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("empty mean: %v", m)
	}
}

// Property: PR-AUC is invariant under any strictly monotone transform of
// the scores (it depends only on the ranking).
func TestPRAUCRankInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 10 + rng.Intn(200)
		scores := make([]float64, n)
		labels := make([]bool, n)
		anyPos := false
		for i := range scores {
			scores[i] = rng.Float64()
			labels[i] = rng.Bernoulli(0.3)
			anyPos = anyPos || labels[i]
		}
		if !anyPos {
			return true
		}
		a := PRAUC(scores, labels)
		transformed := make([]float64, n)
		for i, s := range scores {
			transformed[i] = math.Exp(3*s) + 7 // strictly monotone
		}
		b := PRAUC(transformed, labels)
		return math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the PR curve's recall is non-decreasing as the threshold
// lowers, ending at exactly 1.
func TestPRCurveRecallMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 5 + rng.Intn(100)
		scores := make([]float64, n)
		labels := make([]bool, n)
		anyPos := false
		for i := range scores {
			scores[i] = math.Floor(rng.Float64()*10) / 10 // induce ties
			labels[i] = rng.Bernoulli(0.4)
			anyPos = anyPos || labels[i]
		}
		if !anyPos {
			return true
		}
		curve := PRCurve(scores, labels)
		prev := 0.0
		for _, p := range curve {
			if p.Recall < prev {
				return false
			}
			prev = p.Recall
		}
		return prev == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: PR-AUC is always within [0, 1].
func TestPRAUCBounded(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(64)
		scores := make([]float64, n)
		labels := make([]bool, n)
		anyPos := false
		for i := range scores {
			scores[i] = rng.NormFloat64()
			labels[i] = rng.Bernoulli(0.5)
			anyPos = anyPos || labels[i]
		}
		if !anyPos {
			return true
		}
		auc := PRAUC(scores, labels)
		return auc >= 0 && auc <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
