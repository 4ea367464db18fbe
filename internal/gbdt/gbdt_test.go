package gbdt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// xorData is non-linear: label = (x0 > 0.5) XOR (x1 > 0.5) with noise;
// a depth-1 model cannot learn it, depth ≥ 2 can.
func xorData(n int, seed uint64) ([][]float64, []bool) {
	rng := tensor.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		a, b := rng.Float64(), rng.Float64()
		noise := rng.Float64()
		X[i] = []float64{a, b, noise}
		label := (a > 0.5) != (b > 0.5)
		if rng.Bernoulli(0.1) {
			label = !label
		}
		y[i] = label
	}
	return X, y
}

func TestGBDTLearnsXOR(t *testing.T) {
	X, y := xorData(4000, 1)
	cfg := DefaultConfig()
	cfg.Rounds = 40
	cfg.MaxDepth = 3
	m := Fit(cfg, X, y)
	preds := m.PredictAll(X)
	correct := 0
	for i, p := range preds {
		if (p > 0.5) == y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(y))
	if acc < 0.85 {
		t.Fatalf("GBDT failed to learn XOR: accuracy %v", acc)
	}
}

func TestGBDTDepth1CannotLearnXOR(t *testing.T) {
	X, y := xorData(4000, 2)
	cfg := DefaultConfig()
	cfg.Rounds = 40
	cfg.MaxDepth = 1
	m := Fit(cfg, X, y)
	ll1 := metrics.LogLoss(m.PredictAll(X), y)

	cfg.MaxDepth = 3
	m3 := Fit(cfg, X, y)
	ll3 := metrics.LogLoss(m3.PredictAll(X), y)
	if ll3 >= ll1-0.05 {
		t.Fatalf("depth-3 (%v) should beat depth-1 (%v) on XOR", ll3, ll1)
	}
}

func TestGBDTBaseScoreMatchesRate(t *testing.T) {
	// With zero rounds, predictions equal the smoothed base rate.
	rng := tensor.NewRNG(3)
	X := make([][]float64, 500)
	y := make([]bool, 500)
	for i := range X {
		X[i] = []float64{rng.Float64()}
		y[i] = i%5 == 0 // 20%
	}
	cfg := DefaultConfig()
	cfg.Rounds = 0
	m := Fit(cfg, X, y)
	p := m.Predict([]float64{0.3})
	if math.Abs(p-0.2) > 0.01 {
		t.Fatalf("base prediction: got %v, want ≈0.2", p)
	}
}

func TestGBDTMonotonicImprovement(t *testing.T) {
	X, y := xorData(2000, 4)
	cfg := DefaultConfig()
	cfg.MaxDepth = 3
	var prev float64 = math.Inf(1)
	for _, rounds := range []int{1, 5, 20, 60} {
		cfg.Rounds = rounds
		m := Fit(cfg, X, y)
		ll := metrics.LogLoss(m.PredictAll(X), y)
		if ll > prev+0.02 {
			t.Fatalf("training loss should not increase with rounds: %v after %v", ll, prev)
		}
		prev = ll
	}
}

func TestGBDTDeterministic(t *testing.T) {
	X, y := xorData(500, 5)
	cfg := DefaultConfig()
	cfg.Rounds = 10
	a := Fit(cfg, X, y)
	b := Fit(cfg, X, y)
	for i := 0; i < 50; i++ {
		x := X[i]
		if a.Predict(x) != b.Predict(x) {
			t.Fatalf("training must be deterministic")
		}
	}
}

func TestGBDTSubsample(t *testing.T) {
	X, y := xorData(2000, 6)
	cfg := DefaultConfig()
	cfg.Rounds = 30
	cfg.MaxDepth = 3
	cfg.Subsample = 0.5
	m := Fit(cfg, X, y)
	preds := m.PredictAll(X)
	correct := 0
	for i, p := range preds {
		if (p > 0.5) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(y)); acc < 0.8 {
		t.Fatalf("subsampled GBDT accuracy: %v", acc)
	}
}

func TestGBDTEmptyAndEdgeCases(t *testing.T) {
	m := Fit(DefaultConfig(), nil, nil)
	if len(m.Trees) != 0 {
		t.Fatalf("empty fit must produce no trees")
	}

	// Constant labels: predictions should be extreme but finite.
	rng := tensor.NewRNG(7)
	X := make([][]float64, 100)
	y := make([]bool, 100)
	for i := range X {
		X[i] = []float64{rng.Float64()}
		y[i] = true
	}
	cfg := DefaultConfig()
	cfg.Rounds = 5
	m = Fit(cfg, X, y)
	p := m.Predict([]float64{0.5})
	if math.IsNaN(p) || p < 0.9 {
		t.Fatalf("all-positive data: prediction %v", p)
	}
}

func TestGBDTConstantFeature(t *testing.T) {
	// A constant feature can never split; label depends on the other.
	rng := tensor.NewRNG(8)
	X := make([][]float64, 1000)
	y := make([]bool, 1000)
	for i := range X {
		v := rng.Float64()
		X[i] = []float64{7, v}
		y[i] = v > 0.6
	}
	cfg := DefaultConfig()
	cfg.Rounds = 20
	cfg.MaxDepth = 2
	m := Fit(cfg, X, y)
	if p := m.Predict([]float64{7, 0.9}); p < 0.8 {
		t.Fatalf("high-feature prediction: %v", p)
	}
	if p := m.Predict([]float64{7, 0.1}); p > 0.2 {
		t.Fatalf("low-feature prediction: %v", p)
	}
}

func TestGBDTPredictDimPanics(t *testing.T) {
	X, y := xorData(100, 9)
	cfg := DefaultConfig()
	cfg.Rounds = 2
	m := Fit(cfg, X, y)
	defer func() {
		if recover() == nil {
			t.Fatalf("wrong dimension must panic")
		}
	}()
	m.Predict([]float64{1})
}

func TestGBDTFitMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("mismatched rows/labels must panic")
		}
	}()
	Fit(DefaultConfig(), make([][]float64, 3), make([]bool, 2))
}

func TestBinOf(t *testing.T) {
	edges := []float64{1, 3, 7}
	cases := map[float64]int{0: 0, 1: 0, 2: 1, 3: 1, 5: 2, 7: 2, 100: 3}
	for v, want := range cases {
		if got := binOf(v, edges); got != want {
			t.Fatalf("binOf(%v) = %d, want %d", v, got, want)
		}
	}
	if binOf(5, nil) != 0 {
		t.Fatalf("no edges → single bin")
	}
}

func TestBuildBinsMonotoneEdges(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 50 + rng.Intn(500)
		X := make([][]float64, n)
		for i := range X {
			X[i] = []float64{rng.NormFloat64(), math.Floor(rng.Float64() * 4)}
		}
		edges := buildBins(X, 16)
		for _, e := range edges {
			for i := 1; i < len(e); i++ {
				if e[i] <= e[i-1] {
					return false
				}
			}
			if len(e) > 15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinnedPredictMatchesRawPredict(t *testing.T) {
	// The binned fast path and the raw traversal must agree on training
	// rows (thresholds are bin upper edges).
	X, y := xorData(800, 10)
	cfg := DefaultConfig()
	cfg.Rounds = 10
	cfg.MaxDepth = 4
	edges := buildBins(X, cfg.Bins)
	binned := binRows(X, edges)

	m := Fit(cfg, X, y)
	for i, x := range X {
		var rawScore, binScore float64 = m.Base, m.Base
		for _, tr := range m.Trees {
			rawScore += tr.predictRaw(x)
			binScore += tr.predictBinned(binned, i)
		}
		if math.Abs(rawScore-binScore) > 1e-9 {
			t.Fatalf("row %d: raw %v vs binned %v", i, rawScore, binScore)
		}
	}
}

func TestSearchDepthFindsXORDepth(t *testing.T) {
	trainX, trainY := xorData(3000, 11)
	valX, valY := xorData(1000, 12)
	cfg := DefaultConfig()
	cfg.Rounds = 20
	best, losses := SearchDepth(cfg, trainX, trainY, valX, valY, []int{1, 2, 3})
	if best < 2 {
		t.Fatalf("XOR needs depth ≥ 2, search chose %d (losses %v)", best, losses)
	}
	if len(losses) != 3 {
		t.Fatalf("losses length: %d", len(losses))
	}
	if losses[0] <= losses[best-1] {
		t.Fatalf("depth-1 loss should exceed best: %v", losses)
	}
}

func TestSearchDepthEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("empty depth range must panic")
		}
	}()
	SearchDepth(DefaultConfig(), nil, nil, nil, nil, nil)
}

// Property: predictions are always valid probabilities.
func TestGBDTPredictionsAreProbabilities(t *testing.T) {
	X, y := xorData(1000, 14)
	cfg := DefaultConfig()
	cfg.Rounds = 30
	m := Fit(cfg, X, y)
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) ||
			math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(c, 0) {
			return true
		}
		p := m.Predict([]float64{a, b, c})
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
