package experiments

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/serving"
)

// trainVariant trains one RNN configuration on the ablation population and
// returns its PR-AUC on held-out users (last 7 days).
func (l *Lab) trainVariant(cfg core.Config, tcMod func(*core.TrainConfig)) float64 {
	d := l.ablationDataset()
	split := dataset.SplitUsers(d, 0.2, l.Scale.Seed*31+7)
	m := core.New(d.Schema, cfg)
	tc := core.DefaultTrainConfig()
	tc.BatchUsers = l.Scale.BatchUsers
	tc.Epochs = l.Scale.AblationEpochs
	tc.Seed = l.Scale.Seed
	if l.Scale.RNNLR > 0 {
		tc.LR = l.Scale.RNNLR
	}
	if tcMod != nil {
		tcMod(&tc)
	}
	core.NewTrainer(m, tc).Train(split.Train)
	scores, labels := m.Evaluate(split.Test, evalCutoff(d))
	return metrics.PRAUC(scores, labels)
}

// baseAblationConfig is the reference model for ablations.
func (l *Lab) baseAblationConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.HiddenDim = l.Scale.HiddenDim
	cfg.MLPHidden = l.Scale.MLPHidden
	cfg.Seed = l.Scale.Seed
	return cfg
}

// Cells reproduces the §6.2 recurrent-unit comparison: the paper finds
// GRUs best, LSTMs comparable, tanh lagging.
func (l *Lab) Cells() *Report {
	r := &Report{
		ID:     "cells",
		Title:  "Recurrent cell ablation on MobileTab (paper: GRU best, tanh lags)",
		Header: []string{"CELL", "PR-AUC"},
	}
	for _, kind := range []nn.CellKind{nn.CellGRU, nn.CellLSTM, nn.CellTanh} {
		cfg := l.baseAblationConfig()
		cfg.Cell = kind
		r.Rows = append(r.Rows, []string{string(kind), f3(l.trainVariant(cfg, nil))})
	}
	return r
}

// LatentCross reproduces the §6.2 latent-cross ablation: the element-wise
// multiplication of the hidden state with a context-derived latent factor
// provides a meaningful improvement.
func (l *Lab) LatentCross() *Report {
	r := &Report{
		ID:     "latentcross",
		Title:  "Latent cross ablation on MobileTab (§6.2: cross helps)",
		Header: []string{"PREDICTOR", "PR-AUC"},
	}
	with := l.baseAblationConfig()
	without := l.baseAblationConfig()
	without.LatentCross = false
	r.Rows = append(r.Rows,
		[]string{"MLP + latent cross", f3(l.trainVariant(with, nil))},
		[]string{"MLP only", f3(l.trainVariant(without, nil))},
	)
	return r
}

// HiddenDim reproduces the §9 quality/storage trade-off: smaller hidden
// states trade model quality for a smaller per-user footprint.
func (l *Lab) HiddenDim() *Report {
	r := &Report{
		ID:     "hiddendim",
		Title:  "Hidden dimensionality vs quality and per-user state (§9)",
		Header: []string{"HIDDEN DIM", "PR-AUC", "STATE BYTES/USER"},
	}
	for _, d := range []int{16, 32, 64, 128} {
		cfg := l.baseAblationConfig()
		cfg.HiddenDim = d
		r.Rows = append(r.Rows, []string{
			fint(d), f3(l.trainVariant(cfg, nil)), fint(serving.HiddenValueBytes(d)),
		})
	}
	r.Notes = append(r.Notes, "the paper serves d=128 (512-byte vectors) and notes quantization can shrink this 4x further")
	return r
}

// LossWindow reproduces the §6.3 loss-window finding: training on the last
// 21 days beats both the full 30 days and the last 7.
func (l *Lab) LossWindow() *Report {
	r := &Report{
		ID:     "losswindow",
		Title:  "Training-loss window ablation (§6.3: last 21 days is best)",
		Header: []string{"LOSS WINDOW (DAYS)", "PR-AUC"},
	}
	for _, days := range []int{30, 21, 7} {
		cfg := l.baseAblationConfig()
		days := days
		auc := l.trainVariant(cfg, func(tc *core.TrainConfig) { tc.LossLastDays = days })
		r.Rows = append(r.Rows, []string{fint(days), f3(auc)})
	}
	return r
}

// ByID returns the named experiment's report, or nil.
func (l *Lab) ByID(id string) *Report {
	drivers := map[string]func() *Report{
		"table1":        l.Table1Preview,
		"table2":        l.Table2,
		"figure1":       l.Figure1,
		"table3":        l.Table3,
		"table4":        l.Table4,
		"table5":        l.Table5,
		"figure4":       l.Figure4,
		"figure5":       l.Figure5,
		"figure6":       l.Figure6,
		"figure7":       l.Figure7,
		"online-recall": l.OnlineRecall,
		"serving":       l.ServingCost,
		"parallel":      l.Parallelism,
		"lifecycle":     l.Lifecycle,
		"cluster":       l.Cluster,
		"failover":      l.Failover,
		"chaos":         l.Chaos,
		"batching":      l.Batching,
		"cells":         l.Cells,
		"latentcross":   l.LatentCross,
		"hiddendim":     l.HiddenDim,
		"losswindow":    l.LossWindow,
		"stacked":       l.Stacked,
		"universal":     l.Universal,
		"retrain":       l.Retrain,
		"quantization":  l.Quantization,
	}
	if f, ok := drivers[id]; ok {
		return f()
	}
	return nil
}

// IDs lists all experiment identifiers in presentation order.
func IDs() []string {
	return []string{
		"table1", "table2", "figure1", "table3", "table4", "table5",
		"figure4", "figure5", "figure6", "figure7", "online-recall",
		"serving", "parallel", "lifecycle", "cluster", "failover", "chaos", "batching", "cells", "latentcross", "hiddendim", "losswindow",
		"stacked", "universal", "retrain", "quantization",
	}
}
