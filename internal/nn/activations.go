package nn

import (
	"math"

	"repro/internal/tensor"
)

// Sigmoid returns σ(x) = 1/(1+e^(-x)), computed in a numerically stable
// branch for large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// ReLUVec writes max(0, x) element-wise into dst (dst may alias x).
func ReLUVec(dst, x tensor.Vector) {
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReLUBackward accumulates dx += dy ∘ 1[y > 0], where y is the ReLU output
// (using the output rather than the input avoids keeping both).
func ReLUBackward(dx, y, dy tensor.Vector) {
	for i, v := range y {
		if v > 0 {
			dx[i] += dy[i]
		}
	}
}

// Dropout implements inverted dropout: at training time each element is
// zeroed with probability Rate and survivors are scaled by 1/(1-Rate) so
// that inference needs no rescaling. The paper sets Rate = 0.2 in the middle
// of the prediction MLP (§7, Figure 3).
type Dropout struct {
	Rate float64
}

// Forward applies dropout to x in place when train is true, recording the
// kept/scaled mask into mask (same length as x; a zero entry means dropped,
// a non-zero entry holds the applied scale). When train is false it fills
// mask with ones and leaves x unchanged.
func (d Dropout) Forward(x, mask tensor.Vector, train bool, rng *tensor.RNG) {
	if !train || d.Rate <= 0 {
		mask.Fill(1)
		return
	}
	keep := 1 - d.Rate
	scale := 1 / keep
	for i := range x {
		if rng.Float64() < keep {
			mask[i] = scale
			x[i] *= scale
		} else {
			mask[i] = 0
			x[i] = 0
		}
	}
}
