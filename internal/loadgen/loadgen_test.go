package loadgen

import (
	"math/rand"
	"testing"
)

// seq returns [1, 2, ..., n] — with these inputs the nearest-rank quantile
// Q(p) is simply ceil(p*n), which makes every expectation below readable.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// TestSummarizeNearestRank pins the quantile definition: Q(p) is the sorted
// sample at rank ceil(p·n) (1-based), with n=0 and n=1 handled deliberately.
// The P90 rows with n not a multiple of 10 are the regression cases for the
// old rounding indexing, which read one rank low whenever frac(p·n) < 0.5.
func TestSummarizeNearestRank(t *testing.T) {
	cases := []struct {
		name                     string
		lat                      []float64
		count                    int
		p50, p90, p95, p99, max1 float64
	}{
		{"empty", nil, 0, 0, 0, 0, 0, 0},
		{"single", []float64{7.5}, 1, 7.5, 7.5, 7.5, 7.5, 7.5},
		{"two", seq(2), 2, 1, 2, 2, 2, 2},
		{"ten", seq(10), 10, 5, 9, 10, 10, 10},
		// n=24: p90·n=21.6 → rank 22 (old rounding read rank 21),
		// p95·n=22.8 → rank 23, p99·n=23.76 → rank 24.
		{"twentyfour", seq(24), 24, 12, 22, 23, 24, 24},
		// n=100: exact ranks 50/90/95/99.
		{"hundred", seq(100), 100, 50, 90, 95, 99, 100},
		// n=101: p50·n=50.5 → rank 51 (the median of an odd-length sample
		// is its middle element, which rounding also got right; ceil keeps it).
		{"hundredone", seq(101), 101, 51, 91, 96, 100, 101},
	}
	for _, c := range cases {
		// summarize sorts in place; feed it a shuffled copy so the test also
		// covers the sort.
		shuffled := append([]float64(nil), c.lat...)
		rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got := summarize(shuffled)
		if got.Count != c.count {
			t.Fatalf("%s: count %d, want %d", c.name, got.Count, c.count)
		}
		check := func(what string, got, want float64) {
			if got != want {
				t.Errorf("%s: %s = %v, want %v", c.name, what, got, want)
			}
		}
		check("p50", got.P50Ms, c.p50)
		check("p90", got.P90Ms, c.p90)
		check("p95", got.P95Ms, c.p95)
		check("p99", got.P99Ms, c.p99)
		check("max", got.MaxMs, c.max1)
	}
}
