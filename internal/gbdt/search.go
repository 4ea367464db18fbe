package gbdt

import "repro/internal/metrics"

// SearchDepth trains one model per candidate depth on (trainX, trainY) and
// returns the depth minimising log loss on the validation split, together
// with the per-depth validation losses (index-aligned with depths). The
// caller typically refits at the winning depth on the full training set.
//
// searchCfg controls the per-candidate training budget; the paper uses full
// training runs, which is affordable for XGBoost but not for an exhaustive
// pure-Go search, so experiment drivers pass a reduced Rounds/Subsample
// here and refit the final model with the full budget.
func SearchDepth(searchCfg Config, trainX [][]float64, trainY []bool,
	valX [][]float64, valY []bool, depths []int) (bestDepth int, losses []float64) {

	if len(depths) == 0 {
		panic("gbdt: SearchDepth: empty depth range")
	}
	losses = make([]float64, len(depths))
	best := -1
	for i, d := range depths {
		cfg := searchCfg
		cfg.MaxDepth = d
		m := Fit(cfg, trainX, trainY)
		losses[i] = metrics.LogLoss(m.PredictAll(valX), valY)
		if best < 0 || losses[i] < losses[best] {
			best = i
		}
	}
	return depths[best], losses
}
