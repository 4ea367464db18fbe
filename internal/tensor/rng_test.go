package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed must produce identical streams (step %d)", i)
		}
	}
	c := NewRNG(124)
	same := 0
	a = NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds should diverge; %d collisions", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	distinct := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		distinct[r.Uint64()] = true
	}
	if len(distinct) < 99 {
		t.Fatalf("seed 0 produced a degenerate stream: %d distinct of 100", len(distinct))
	}
}

func TestForkIndependence(t *testing.T) {
	base := NewRNG(7)
	f1 := base.Fork(1)
	f2 := base.Fork(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams should be independent; %d collisions", same)
	}
}

func TestForkDeterministicGivenOrder(t *testing.T) {
	a := NewRNG(9).Fork(5)
	b := NewRNG(9).Fork(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("fork must be deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", x)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean too far from 0.5: %v", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(17)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) should hit all 7 values in 1000 draws; got %d", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Intn(0) must panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(19)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean too far from 0: %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance too far from 1: %v", variance)
	}
}

func TestParetoProperties(t *testing.T) {
	r := NewRNG(29)
	const n = 100000
	below := 0
	for i := 0; i < n; i++ {
		x := r.Pareto(2, 1.5)
		if x < 2 {
			t.Fatalf("Pareto below xm: %v", x)
		}
		// P(X <= 4) = 1 - (2/4)^1.5 ≈ 0.6464
		if x <= 4 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.6464) > 0.01 {
		t.Fatalf("Pareto CDF at 4: got %v, want ≈0.6464", frac)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(41)
	for _, mean := range []float64{0.5, 3, 12, 60} {
		const n = 30000
		var sum float64
		for i := 0; i < n; i++ {
			k := r.Poisson(mean)
			if k < 0 {
				t.Fatalf("Poisson must be non-negative")
			}
			sum += float64(k)
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*math.Max(1, mean) {
			t.Fatalf("Poisson(%v) mean: got %v", mean, got)
		}
	}
	if NewRNG(1).Poisson(0) != 0 {
		t.Fatalf("Poisson(0) must be 0")
	}
	if NewRNG(1).Poisson(-1) != 0 {
		t.Fatalf("Poisson(negative) must be 0")
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(43)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatalf("Bernoulli(0) must never fire")
		}
		if !r.Bernoulli(1) {
			t.Fatalf("Bernoulli(1) must always fire")
		}
	}
}

func TestFillHelpers(t *testing.T) {
	r := NewRNG(47)
	v := NewVector(1000)
	r.FillUniform(v, -2, 3)
	for _, x := range v {
		if x < -2 || x >= 3 {
			t.Fatalf("FillUniform out of range: %v", x)
		}
	}
}
