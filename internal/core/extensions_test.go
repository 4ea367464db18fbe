package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func TestMinimalModelDims(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 8
	cfg.Minimal = true
	m := tinyModel(cfg)
	if m.UpdateDim() != 1+features.NumTimeBuckets {
		t.Fatalf("minimal UpdateDim: %d", m.UpdateDim())
	}
	if m.PredictDim() != features.NumTimeBuckets {
		t.Fatalf("minimal PredictDim: %d", m.PredictDim())
	}
	// Inputs ignore context entirely.
	in := m.BuildUpdateInput(synth.DefaultStart, []int{2}, true, 3600, nil)
	if sum(in) != 2 { // access flag + T one-hot
		t.Fatalf("minimal update input: %v ones", sum(in))
	}
	f := m.BuildPredictInput(synth.DefaultStart, []int{2}, 60, nil)
	if sum(f) != 1 {
		t.Fatalf("minimal predict input: %v ones", sum(f))
	}
}

func TestMinimalModelCrossSchema(t *testing.T) {
	// A minimal model trained against one schema must evaluate cleanly on
	// a dataset with a different schema (the §10.1 reusable-model point).
	cfg := DefaultConfig()
	cfg.HiddenDim = 8
	cfg.MLPHidden = 8
	cfg.Minimal = true
	m := New(synth.MobileTabSchema(), cfg)

	mpuCfg := synth.DefaultMPU()
	mpuCfg.Users = 5
	mpuCfg.MeanEventsPerDay = 10
	mpu := synth.GenerateMPU(mpuCfg)
	scores, labels := m.EvaluateSessions(mpu, 0)
	if len(scores) == 0 || len(scores) != len(labels) {
		t.Fatalf("cross-schema evaluation failed")
	}
	for _, s := range scores {
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("bad score %v", s)
		}
	}
}

func TestMinimalGradCheck(t *testing.T) {
	cfg := Config{
		Cell: nn.CellGRU, HiddenDim: 4, MLPHidden: 5,
		DropoutRate: 0, LatentCross: true, Minimal: true, Seed: 3,
	}
	m := tinyModel(cfg)
	u, d := tinyUser(5, 21)
	rng := tensor.NewRNG(1)
	loss := func() float64 {
		l, _ := m.lossOnly(u, d)
		return l
	}
	compute := func() {
		m.Params().ZeroGrad()
		m.backpropUser(u, d, 0, DefaultTimeshiftLead, rng, false)
	}
	if err := nn.GradCheck(m.Params(), loss, compute, 1e-6, 5e-5); err != nil {
		t.Fatal(err)
	}
}

func TestStackedModelTrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 8
	cfg.MLPHidden = 8
	cfg.Layers = 2
	mtCfg := synth.DefaultMobileTab()
	mtCfg.Users = 30
	mtCfg.Days = 6
	d := synth.GenerateMobileTab(mtCfg)
	m := New(d.Schema, cfg)
	if m.StateSize() != 16 {
		t.Fatalf("2-layer state size: %d", m.StateSize())
	}
	tc := DefaultTrainConfig()
	tc.LossLastDays = 0
	tc.BatchUsers = 4
	tr := NewTrainer(m, tc)
	first := tr.TrainEpoch(d, 0)
	var last float64
	for e := uint64(1); e < 4; e++ {
		last = tr.TrainEpoch(d, e)
	}
	if !(last < first) {
		t.Fatalf("stacked model failed to learn: %v → %v", first, last)
	}
}

func TestStackedModelGradCheck(t *testing.T) {
	cfg := Config{
		Cell: nn.CellGRU, HiddenDim: 3, MLPHidden: 4,
		DropoutRate: 0, LatentCross: true, Layers: 2, Seed: 5,
	}
	m := tinyModel(cfg)
	u, d := tinyUser(4, 31)
	rng := tensor.NewRNG(2)
	loss := func() float64 {
		l, _ := m.lossOnly(u, d)
		return l
	}
	compute := func() {
		m.Params().ZeroGrad()
		m.backpropUser(u, d, 0, DefaultTimeshiftLead, rng, false)
	}
	if err := nn.GradCheck(m.Params(), loss, compute, 1e-6, 5e-5); err != nil {
		t.Fatal(err)
	}
}

func TestFreezeCellLeavesCellUntouched(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 8
	cfg.MLPHidden = 8
	mtCfg := synth.DefaultMobileTab()
	mtCfg.Users = 20
	mtCfg.Days = 5
	d := synth.GenerateMobileTab(mtCfg)
	m := New(d.Schema, cfg)

	cellBefore := flatten(m.cell.Params())
	headBefore := flatten(append(append(m.l.Params(), m.w1.Params()...), m.w2.Params()...))

	tc := DefaultTrainConfig()
	tc.LossLastDays = 0
	tc.FreezeCell = true
	NewTrainer(m, tc).TrainEpoch(d, 0)

	cellAfter := flatten(m.cell.Params())
	for i := range cellBefore {
		if cellBefore[i] != cellAfter[i] {
			t.Fatalf("FreezeCell must not move cell parameters")
		}
	}
	headAfter := flatten(append(append(m.l.Params(), m.w1.Params()...), m.w2.Params()...))
	moved := false
	for i := range headBefore {
		if headBefore[i] != headAfter[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatalf("FreezeCell must still train the head")
	}
}

func TestFreezeCellRetrainRecoversQuality(t *testing.T) {
	// Train a base model, re-initialise the head, retrain head-only: the
	// frozen-cell model must recover most of the base quality (§9).
	mtCfg := synth.DefaultMobileTab()
	mtCfg.Users = 120
	d := synth.GenerateMobileTab(mtCfg)
	split := dataset.SplitUsers(d, 0.25, 13)
	cutoff := d.CutoffForLastDays(7)

	cfg := DefaultConfig()
	cfg.HiddenDim = 16
	cfg.MLPHidden = 16
	base := New(d.Schema, cfg)
	tc := DefaultTrainConfig()
	tc.Epochs = 3
	tc.BatchUsers = 2
	tc.LR = 3e-3
	NewTrainer(base, tc).Train(split.Train)
	bs, bl := base.EvaluateSessions(split.Test, cutoff)
	baseAUC := metrics.PRAUC(bs, bl)

	cfg2 := cfg
	cfg2.Seed = 99
	head := New(d.Schema, cfg2)
	base.CopyCellTo(head)
	tcH := tc
	tcH.FreezeCell = true
	NewTrainer(head, tcH).Train(split.Train)
	hs, hl := head.EvaluateSessions(split.Test, cutoff)
	headAUC := metrics.PRAUC(hs, hl)

	if headAUC < 0.75*baseAUC {
		t.Fatalf("head-only retrain too weak: %v vs base %v", headAUC, baseAUC)
	}
	t.Logf("base %.3f, head-only retrain %.3f", baseAUC, headAUC)
}

func TestCopyCellTo(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 4
	cfg.MLPHidden = 4
	a := tinyModel(cfg)
	cfg.Seed = 7
	b := tinyModel(cfg)
	a.CopyCellTo(b)
	fa, fb := flatten(a.cell.Params()), flatten(b.cell.Params())
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("CopyCellTo mismatch")
		}
	}
	// Heads remain different (different seeds).
	ha, hb := flatten(a.w1.Params()), flatten(b.w1.Params())
	same := true
	for i := range ha {
		if ha[i] != hb[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("CopyCellTo must not copy the head")
	}
}

func TestEvaluateSessionsTransformedIdentity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 8
	cfg.MLPHidden = 8
	m := tinyModel(cfg)
	u, d := tinyUser(10, 41)
	_ = u
	a, _ := m.EvaluateSessions(d, 0)
	b, _ := m.EvaluateSessionsTransformed(d, 0, func(h tensor.Vector) tensor.Vector { return h })
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("identity transform must not change predictions")
		}
	}
}
