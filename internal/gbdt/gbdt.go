// Package gbdt implements gradient-boosted decision trees for binary
// classification, standing in for XGBoost 0.90 (§5.4). It follows the
// XGBoost formulation: second-order boosting of the logistic loss,
// histogram-based split finding, L2-regularised leaf weights
// (gain = G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)), and the paper's tuning
// protocol — an exhaustive tree-depth search on a held-out validation
// split.
package gbdt

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config holds the boosting hyperparameters. Defaults (via DefaultConfig)
// mirror XGBoost 0.90's: eta 0.3, λ 1, 100 rounds, "mostly default
// settings, except for the tree depth" (§5.4).
type Config struct {
	Rounds         int
	LearningRate   float64
	MaxDepth       int
	Lambda         float64 // L2 on leaf weights
	Gamma          float64 // minimum gain to split
	MinChildWeight float64 // minimum hessian sum per child
	Bins           int     // histogram bins per feature
	Subsample      float64 // row subsampling per tree (1 = off)
	Seed           uint64
}

// DefaultConfig returns XGBoost-0.90-like defaults.
func DefaultConfig() Config {
	return Config{
		Rounds:         100,
		LearningRate:   0.3,
		MaxDepth:       6,
		Lambda:         1,
		Gamma:          0,
		MinChildWeight: 1,
		Bins:           64,
		Subsample:      1,
		Seed:           1,
	}
}

// node is one tree node in a flat array layout.
type node struct {
	feature   int32
	splitBin  uint8   // go left if bin <= splitBin
	threshold float64 // raw-value threshold equivalent of splitBin
	left      int32   // index of left child; -1 for leaf
	right     int32
	value     float64 // leaf output (already scaled by learning rate)
}

// Tree is one regression tree over binned features.
type Tree struct {
	nodes []node
}

// predictRaw traverses the tree on raw feature values.
func (t *Tree) predictRaw(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.left < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Model is a fitted GBDT classifier.
type Model struct {
	Config Config
	// Base is the initial log-odds score.
	Base  float64
	Trees []*Tree
	// dim is the feature dimension seen at fit time.
	dim int
}

// Fit trains the model on dense features and binary labels.
func Fit(cfg Config, X [][]float64, y []bool) *Model {
	if len(X) != len(y) {
		panic(fmt.Sprintf("gbdt: Fit: %d rows vs %d labels", len(X), len(y)))
	}
	m := &Model{Config: cfg}
	if len(X) == 0 {
		return m
	}
	m.dim = len(X[0])
	n := len(X)

	// Base score: log-odds of the positive rate.
	pos := 0
	for _, v := range y {
		if v {
			pos++
		}
	}
	rate := (float64(pos) + 0.5) / (float64(n) + 1)
	m.Base = math.Log(rate / (1 - rate))

	// Quantile binning per feature.
	edges := buildBins(X, cfg.Bins)
	binned := binRows(X, edges)

	scores := make([]float64, n)
	for i := range scores {
		scores[i] = m.Base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	rows := make([]int32, n)
	rng := tensor.NewRNG(cfg.Seed)

	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			p := nn.Sigmoid(scores[i])
			t := 0.0
			if y[i] {
				t = 1
			}
			grad[i] = p - t
			hess[i] = p * (1 - p)
		}
		rows = rows[:0]
		if cfg.Subsample < 1 {
			for i := 0; i < n; i++ {
				if rng.Bernoulli(cfg.Subsample) {
					rows = append(rows, int32(i))
				}
			}
			if len(rows) == 0 {
				rows = append(rows, int32(rng.Intn(n)))
			}
		} else {
			for i := 0; i < n; i++ {
				rows = append(rows, int32(i))
			}
		}
		tree := growTree(cfg, binned, edges, grad, hess, rows)
		m.Trees = append(m.Trees, tree)
		for i := 0; i < n; i++ {
			scores[i] += tree.predictBinned(binned, i)
		}
	}
	return m
}

// predictBinned traverses using the pre-binned matrix (training fast path).
func (t *Tree) predictBinned(binned [][]uint8, row int) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.left < 0 {
			return n.value
		}
		if binned[n.feature][row] <= n.splitBin {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Predict returns P(positive) for one raw feature vector.
func (m *Model) Predict(x []float64) float64 {
	return nn.Sigmoid(m.PredictRawScore(x))
}

// PredictRawScore returns the log-odds margin for one feature vector.
func (m *Model) PredictRawScore(x []float64) float64 {
	if len(x) != m.dim && m.dim != 0 {
		panic(fmt.Sprintf("gbdt: Predict: got %d features, model fitted on %d", len(x), m.dim))
	}
	s := m.Base
	for _, t := range m.Trees {
		s += t.predictRaw(x)
	}
	return s
}

// PredictAll returns probabilities for a batch.
func (m *Model) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}

// buildBins computes per-feature quantile bin edges. edges[f] has at most
// bins-1 thresholds; bin b holds values ≤ edges[b] (last bin unbounded).
func buildBins(X [][]float64, bins int) [][]float64 {
	if bins < 2 {
		bins = 2
	}
	if bins > 256 {
		bins = 256
	}
	dim := len(X[0])
	edges := make([][]float64, dim)
	// Sample rows for quantile estimation to bound cost on large datasets.
	step := 1
	if len(X) > 100000 {
		step = len(X) / 100000
	}
	vals := make([]float64, 0, len(X)/step+1)
	for f := 0; f < dim; f++ {
		vals = vals[:0]
		for i := 0; i < len(X); i += step {
			vals = append(vals, X[i][f])
		}
		sort.Float64s(vals)
		var e []float64
		for b := 1; b < bins; b++ {
			q := vals[b*len(vals)/bins]
			if len(e) == 0 || q > e[len(e)-1] {
				e = append(e, q)
			}
		}
		edges[f] = e
	}
	return edges
}

// binRows maps raw values to bin indices; layout is feature-major for
// cache-friendly histogram building.
func binRows(X [][]float64, edges [][]float64) [][]uint8 {
	dim := len(edges)
	out := make([][]uint8, dim)
	for f := 0; f < dim; f++ {
		col := make([]uint8, len(X))
		e := edges[f]
		for i, row := range X {
			col[i] = uint8(binOf(row[f], e))
		}
		out[f] = col
	}
	return out
}

// binOf returns the bin index of v given sorted edges (bin b ⇔ v ≤
// edges[b], last bin for v above all edges).
func binOf(v float64, edges []float64) int {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
