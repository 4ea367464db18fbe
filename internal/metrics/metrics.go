// Package metrics implements the evaluation measures used in §8 of the
// paper: the precision-recall curve, the area under it (PR-AUC, the paper's
// headline comparison metric, following Davis & Goadrich 2006), recall at a
// fixed precision (Table 4 uses 50%, the production deployment 60%), and
// log loss. It also provides the histogram behind Figure 5.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// PRPoint is one operating point of a precision-recall curve.
type PRPoint struct {
	// Threshold is the minimum score classified positive at this point.
	Threshold float64
	Precision float64
	Recall    float64
}

// PRCurve computes the precision-recall curve over all distinct score
// thresholds, ordered from the highest threshold (low recall) to the
// lowest (recall 1). Tied scores are grouped into a single operating point,
// matching scikit-learn's precision_recall_curve semantics. It panics if
// lengths differ and returns nil if there are no positive labels.
func PRCurve(scores []float64, labels []bool) []PRPoint {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: PRCurve: %d scores vs %d labels", len(scores), len(labels)))
	}
	totalPos := 0
	for _, l := range labels {
		if l {
			totalPos++
		}
	}
	if totalPos == 0 || len(scores) == 0 {
		return nil
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	var curve []PRPoint
	tp, fp := 0, 0
	for i := 0; i < len(idx); {
		threshold := scores[idx[i]]
		// Consume the whole tie group.
		for i < len(idx) && scores[idx[i]] == threshold {
			if labels[idx[i]] {
				tp++
			} else {
				fp++
			}
			i++
		}
		curve = append(curve, PRPoint{
			Threshold: threshold,
			Precision: float64(tp) / float64(tp+fp),
			Recall:    float64(tp) / float64(totalPos),
		})
	}
	return curve
}

// PRAUC returns the area under the precision-recall curve using the
// step-wise (average precision) integration Σ (Rᵢ − Rᵢ₋₁)·Pᵢ, which Davis &
// Goadrich recommend for skewed datasets over trapezoidal interpolation.
// Returns NaN when there are no positive labels.
func PRAUC(scores []float64, labels []bool) float64 {
	curve := PRCurve(scores, labels)
	if curve == nil {
		return math.NaN()
	}
	return PRAUCFromCurve(curve)
}

// PRAUCFromCurve integrates a pre-computed curve (as returned by PRCurve).
func PRAUCFromCurve(curve []PRPoint) float64 {
	auc := 0.0
	prevRecall := 0.0
	for _, p := range curve {
		auc += (p.Recall - prevRecall) * p.Precision
		prevRecall = p.Recall
	}
	return auc
}

// RecallAtPrecision returns the maximum recall achievable while keeping
// precision at or above minPrecision, along with the score threshold that
// achieves it (Table 4; the production policy in §9 targets 60%). If no
// operating point reaches the precision floor, it returns (0, +Inf).
func RecallAtPrecision(scores []float64, labels []bool, minPrecision float64) (recall, threshold float64) {
	curve := PRCurve(scores, labels)
	best, bestThresh := 0.0, math.Inf(1)
	for _, p := range curve {
		if p.Precision >= minPrecision && p.Recall > best {
			best, bestThresh = p.Recall, p.Threshold
		}
	}
	return best, bestThresh
}

// PrecisionRecallAt returns the realised precision and recall of the policy
// "precompute when score ≥ threshold".
func PrecisionRecallAt(scores []float64, labels []bool, threshold float64) (precision, recall float64) {
	if len(scores) != len(labels) {
		panic("metrics: PrecisionRecallAt: length mismatch")
	}
	tp, fp, pos := 0, 0, 0
	for i, s := range scores {
		if labels[i] {
			pos++
		}
		if s >= threshold {
			if labels[i] {
				tp++
			} else {
				fp++
			}
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if pos > 0 {
		recall = float64(tp) / float64(pos)
	}
	return precision, recall
}

// LogLoss returns the mean binary cross-entropy of predicted probabilities
// against labels, clamping probabilities away from {0, 1}.
func LogLoss(probs []float64, labels []bool) float64 {
	if len(probs) != len(labels) {
		panic("metrics: LogLoss: length mismatch")
	}
	if len(probs) == 0 {
		return 0
	}
	const eps = 1e-12
	var sum float64
	for i, p := range probs {
		if p < eps {
			p = eps
		} else if p > 1-eps {
			p = 1 - eps
		}
		if labels[i] {
			sum -= math.Log(p)
		} else {
			sum -= math.Log(1 - p)
		}
	}
	return sum / float64(len(probs))
}

// HistogramBin is one bin of a fixed-width histogram.
type HistogramBin struct {
	Lo, Hi float64
	Count  int
}

// Histogram buckets values into `bins` equal-width bins over [lo, hi);
// values outside the range are clamped into the end bins (Figure 5 caps
// MPU session counts at 20,000).
func Histogram(values []float64, bins int, lo, hi float64) []HistogramBin {
	if bins <= 0 || hi <= lo {
		panic("metrics: Histogram: bad bin spec")
	}
	width := (hi - lo) / float64(bins)
	out := make([]HistogramBin, bins)
	for i := range out {
		out[i].Lo = lo + float64(i)*width
		out[i].Hi = lo + float64(i+1)*width
	}
	for _, v := range values {
		idx := int((v - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= bins {
			idx = bins - 1
		}
		out[idx].Count++
	}
	return out
}

// Mean returns the arithmetic mean of values (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
