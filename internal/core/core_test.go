package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func tinySchema() *dataset.Schema {
	return &dataset.Schema{
		Name:          "tiny",
		SessionLength: 1200,
		Cat:           []dataset.CatFeature{{Name: "c", Cardinality: 3}},
	}
}

func tinyModel(cfg Config) *Model { return New(tinySchema(), cfg) }

func tinyUser(nSessions int, seed uint64) (*dataset.User, *dataset.Dataset) {
	rng := tensor.NewRNG(seed)
	schema := tinySchema()
	start := synth.DefaultStart
	d := &dataset.Dataset{Schema: schema, Start: start, End: start + 30*dataset.Day}
	u := &dataset.User{ID: 0}
	ts := start
	for i := 0; i < nSessions; i++ {
		ts += int64(rng.Intn(2*86400) + 100)
		if ts >= d.End {
			ts = d.End - 1
		}
		u.Sessions = append(u.Sessions, dataset.Session{
			Timestamp: ts,
			Access:    rng.Bernoulli(0.4),
			Cat:       []int{rng.Intn(3)},
		})
	}
	u.SortSessions()
	d.Users = []*dataset.User{u}
	return u, d
}

func TestModelDims(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 8
	cfg.MLPHidden = 16
	m := tinyModel(cfg)
	ctxDim := 3 + 24 + 7
	if m.UpdateDim() != ctxDim+1+50 {
		t.Fatalf("UpdateDim: %d", m.UpdateDim())
	}
	if m.PredictDim() != ctxDim+50 {
		t.Fatalf("PredictDim: %d", m.PredictDim())
	}
	if m.HiddenDim() != 8 || m.StateSize() != 8 {
		t.Fatalf("hidden dims wrong")
	}

	cfg.Timeshift = true
	mt := tinyModel(cfg)
	if mt.PredictDim() != 50 {
		t.Fatalf("timeshift PredictDim: %d", mt.PredictDim())
	}
}

func TestBuildInputs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 4
	m := tinyModel(cfg)
	in := m.BuildUpdateInput(synth.DefaultStart, []int{2}, true, 3600, nil)
	// Exactly five ones: category, hour, day-of-week, access flag, T(Δt).
	if in.Sum() != 5 {
		t.Fatalf("update input one-hot count: %v", in.Sum())
	}
	inNoAccess := m.BuildUpdateInput(synth.DefaultStart, []int{2}, false, 3600, nil)
	if inNoAccess.Sum() != 4 {
		t.Fatalf("no-access input count: %v", inNoAccess.Sum())
	}

	f := m.BuildPredictInput(synth.DefaultStart, []int{1}, 60, nil)
	if f.Sum() != 4 {
		t.Fatalf("predict input count: %v", f.Sum())
	}
}

func TestTimeshiftInputGuards(t *testing.T) {
	cfg := DefaultConfig()
	m := tinyModel(cfg)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("timeshift builder on session model must panic")
			}
		}()
		m.BuildTimeshiftPredictInput(10, nil)
	}()
	cfg.Timeshift = true
	mt := tinyModel(cfg)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("session builder on timeshift model must panic")
			}
		}()
		mt.BuildPredictInput(0, []int{0}, 0, nil)
	}()
}

func TestLagIndexer(t *testing.T) {
	times := []int64{100, 200, 300, 1000}
	lag := lagIndexer{times: times, delta: 50}
	// pt=120: need t_k < 70 → none.
	if k, tk := lag.next(120); k != 0 || tk != 0 {
		t.Fatalf("k at 120: %d %d", k, tk)
	}
	// pt=260: t_k < 210 → sessions 100, 200 → k=2, tk=200.
	if k, tk := lag.next(260); k != 2 || tk != 200 {
		t.Fatalf("k at 260: %d %d", k, tk)
	}
	// pt=310: t_k < 260 → still k=2.
	if k, _ := lag.next(310); k != 2 {
		t.Fatalf("k at 310: %d", k)
	}
	// pt=2000: all 4.
	if k, tk := lag.next(2000); k != 4 || tk != 1000 {
		t.Fatalf("k at 2000: %d %d", k, tk)
	}
}

func TestDeltaLagRespectedInEvaluation(t *testing.T) {
	// Two sessions 1 second apart: the second's prediction may not use the
	// first's hidden update (δ = 20 min + ε). With 1 session far in the
	// past, predictions differ.
	cfg := DefaultConfig()
	cfg.HiddenDim = 8
	cfg.MLPHidden = 8
	cfg.Seed = 3
	m := tinyModel(cfg)
	schema := tinySchema()
	start := synth.DefaultStart
	d := &dataset.Dataset{Schema: schema, Start: start, End: start + 30*dataset.Day}
	u := &dataset.User{ID: 0, Sessions: []dataset.Session{
		{Timestamp: start + 1000, Access: true, Cat: []int{0}},
		{Timestamp: start + 1001, Access: true, Cat: []int{0}},
	}}
	d.Users = []*dataset.User{u}
	scores, _ := m.EvaluateSessions(d, 0)
	// Both predictions must come from h_0 (no update visible within δ),
	// and with identical context the scores are identical.
	if len(scores) != 2 {
		t.Fatalf("want 2 scores")
	}
	if scores[0] != scores[1] {
		t.Fatalf("δ-lag violated: %v vs %v", scores[0], scores[1])
	}
}

func TestUpdateStateChangesWithAccess(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 8
	m := tinyModel(cfg)
	h0 := m.InitialState()
	inA := m.BuildUpdateInput(synth.DefaultStart, []int{0}, true, 0, nil)
	inB := m.BuildUpdateInput(synth.DefaultStart, []int{0}, false, 0, nil)
	hA := m.UpdateState(h0, inA)
	hB := m.UpdateState(h0, inB)
	diff := 0.0
	for i := range hA {
		diff += math.Abs(hA[i] - hB[i])
	}
	if diff < 1e-6 {
		t.Fatalf("access flag must affect the hidden update")
	}
	// h0 unchanged.
	if h0.Norm2() != 0 {
		t.Fatalf("UpdateState must not mutate input state")
	}
}

// Full-model gradient check: BPTT through the GRU chain, δ-lag prediction
// heads, latent cross, dropout (disabled for determinism) and the MLP.
func TestFullModelGradCheck(t *testing.T) {
	cfg := Config{
		Cell: nn.CellGRU, HiddenDim: 5, MLPHidden: 6,
		DropoutRate: 0, LatentCross: true, Seed: 7,
	}
	m := tinyModel(cfg)
	u, d := tinyUser(6, 11)
	rng := tensor.NewRNG(1)

	loss := func() float64 {
		l, n := m.cloneForLoss().lossOnly(u, d)
		if n == 0 {
			t.Fatalf("no predictions generated")
		}
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

// cloneForLoss lets the grad check evaluate the loss with the *current*
// parameter values without touching gradients.
func (m *Model) cloneForLoss() *Model { return m }

// lossOnly computes the summed training loss without backprop.
func (m *Model) lossOnly(u *dataset.User, d *dataset.Dataset) (float64, int) {
	states, _ := m.runUpdates(u, false)
	times := sessionTimes(u)
	lag := lagIndexer{times: times, delta: Delta(d.Schema)}
	var sum float64
	n := 0
	for _, s := range u.Sessions {
		k, tk := lag.next(s.Timestamp)
		var sinceK int64
		if k > 0 {
			sinceK = s.Timestamp - tk
		}
		f := m.BuildPredictInput(s.Timestamp, s.Cat, sinceK, nil)
		logit := m.predictForward(states[k][:m.HiddenDim()], f, false, nil, nil)
		y := 0.0
		if s.Access {
			y = 1
		}
		loss, _ := nn.BCEWithLogits(logit, y)
		sum += loss
		n++
	}
	return sum, n
}

// Timeshift-mode gradient check (eq. 3 path).
func TestTimeshiftGradCheck(t *testing.T) {
	cfg := Config{
		Cell: nn.CellGRU, HiddenDim: 4, MLPHidden: 5,
		DropoutRate: 0, LatentCross: true, Timeshift: true, Seed: 9,
	}
	schema := synth.TimeshiftSchema(17, 21)
	m := New(schema, cfg)

	tsCfg := synth.DefaultTimeshift()
	tsCfg.Users = 1
	tsCfg.Seed = 5
	d := synth.GenerateTimeshift(tsCfg)
	u := d.Users[0]
	rng := tensor.NewRNG(2)

	loss := func() float64 {
		states, _ := m.runUpdates(u, false)
		lag := lagIndexer{times: sessionTimes(u), delta: DefaultTimeshiftLead}
		var sum float64
		for _, w := range u.Windows {
			k, tk := lag.next(w.Start)
			var sinceK int64
			if k > 0 {
				sinceK = w.Start - tk
			}
			f := m.BuildTimeshiftPredictInput(sinceK, nil)
			logit := m.predictForward(states[k][:m.HiddenDim()], f, false, nil, nil)
			y := 0.0
			if w.Accessed {
				y = 1
			}
			l, _ := nn.BCEWithLogits(logit, y)
			sum += l
		}
		return sum
	}
	compute := func() {
		m.Params().ZeroGrad()
		m.backpropUser(u, d, 0, DefaultTimeshiftLead, rng, false)
	}
	if err := nn.GradCheck(m.Params(), loss, compute, 1e-6, 5e-5); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 16
	cfg.MLPHidden = 16
	mtCfg := synth.DefaultMobileTab()
	mtCfg.Users = 60
	mtCfg.Days = 10
	d := synth.GenerateMobileTab(mtCfg)
	m := New(d.Schema, cfg)

	tc := DefaultTrainConfig()
	tc.LossLastDays = 0 // use everything on this short window
	tr := NewTrainer(m, tc)

	first := tr.TrainEpoch(d, 0)
	var last float64
	for e := uint64(1); e < 4; e++ {
		last = tr.TrainEpoch(d, e)
	}
	if last >= first {
		t.Fatalf("training loss should decrease: first %v, last %v", first, last)
	}
}

func TestTrainingDeterministic(t *testing.T) {
	run := func() []float64 {
		cfg := DefaultConfig()
		cfg.HiddenDim = 8
		cfg.MLPHidden = 8
		mtCfg := synth.DefaultMobileTab()
		mtCfg.Users = 20
		mtCfg.Days = 5
		d := synth.GenerateMobileTab(mtCfg)
		m := New(d.Schema, cfg)
		tc := DefaultTrainConfig()
		tc.LossLastDays = 0
		tc.Workers = 4 // parallel merge must still be deterministic
		tr := NewTrainer(m, tc)
		tr.TrainEpoch(d, 0)
		scores, _ := m.EvaluateSessions(d, 0)
		return scores
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("score count differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training must be deterministic under parallelism (idx %d: %v vs %v)", i, a[i], b[i])
		}
	}
}

func TestRNNLearnsEngagementSignal(t *testing.T) {
	// End-to-end: on synthetic MobileTab the trained RNN must beat the
	// percentage-style constant-per-user predictor by a clear margin.
	mtCfg := synth.DefaultMobileTab()
	mtCfg.Users = 150
	d := synth.GenerateMobileTab(mtCfg)
	split := dataset.SplitUsers(d, 0.25, 3)

	cfg := DefaultConfig()
	cfg.HiddenDim = 24
	cfg.MLPHidden = 32
	m := New(d.Schema, cfg)
	tc := DefaultTrainConfig()
	// At this miniature scale one epoch is only ~14 optimizer steps with
	// the paper's 10-user batches; shrink batches and add epochs so Adam
	// takes enough steps to converge.
	tc.BatchUsers = 2
	tc.Epochs = 5
	tr := NewTrainer(m, tc)
	tr.Train(split.Train)

	minTs := d.CutoffForLastDays(7)
	scores, labels := m.EvaluateSessions(split.Test, minTs)
	rnnAUC := metrics.PRAUC(scores, labels)

	// Percentage-equivalent scores: per-user running mean.
	var pScores []float64
	var pLabels []bool
	alpha := split.Train.PositiveRate()
	for _, u := range split.Test.Users {
		acc, n := 0.0, 0
		for _, s := range u.Sessions {
			if s.Timestamp >= minTs {
				pScores = append(pScores, (alpha+acc)/float64(n+1))
				pLabels = append(pLabels, s.Access)
			}
			n++
			if s.Access {
				acc++
			}
		}
	}
	pctAUC := metrics.PRAUC(pScores, pLabels)
	if !(rnnAUC > pctAUC) {
		t.Fatalf("RNN (%v) must beat percentage baseline (%v)", rnnAUC, pctAUC)
	}
	t.Logf("RNN PR-AUC %.4f vs percentage %.4f", rnnAUC, pctAUC)
}

func TestLossCurveRecorded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 8
	cfg.MLPHidden = 8
	mtCfg := synth.DefaultMobileTab()
	mtCfg.Users = 30
	mtCfg.Days = 5
	d := synth.GenerateMobileTab(mtCfg)
	m := New(d.Schema, cfg)
	tc := DefaultTrainConfig()
	tc.LossLastDays = 0
	tr := NewTrainer(m, tc)
	tr.TrainEpoch(d, 0)
	if len(tr.Curve) == 0 {
		t.Fatalf("loss curve must be recorded")
	}
	prev := 0
	for _, p := range tr.Curve {
		if p.ExamplesProcessed <= prev {
			t.Fatalf("examples processed must increase")
		}
		if p.Loss < 0 || math.IsNaN(p.Loss) {
			t.Fatalf("bad loss point: %+v", p)
		}
		prev = p.ExamplesProcessed
	}
}

func TestPaddedStatsWaste(t *testing.T) {
	mtCfg := synth.DefaultMobileTab()
	mtCfg.Users = 100
	d := synth.GenerateMobileTab(mtCfg)
	st := PaddedBatchStats(d, 10, 1)
	if st.RealSteps != d.NumSessions() {
		t.Fatalf("real steps must equal session count")
	}
	if st.PaddedSteps < st.RealSteps {
		t.Fatalf("padding can only add steps")
	}
	if st.WasteFactor() < 1.2 {
		t.Fatalf("long-tailed histories should waste >20%%: factor %v", st.WasteFactor())
	}
}

func TestPaddedTrainingMatchesUnpaddedGradients(t *testing.T) {
	// Same seed, same order → padded and per-user training must produce
	// identical parameters (padding only adds discarded compute).
	build := func() (*Model, *dataset.Dataset) {
		cfg := DefaultConfig()
		cfg.HiddenDim = 8
		cfg.MLPHidden = 8
		mtCfg := synth.DefaultMobileTab()
		mtCfg.Users = 15
		mtCfg.Days = 5
		d := synth.GenerateMobileTab(mtCfg)
		return New(d.Schema, cfg), d
	}
	mA, d := build()
	tcA := DefaultTrainConfig()
	tcA.LossLastDays = 0
	trA := NewTrainer(mA, tcA)
	trA.TrainEpoch(d, 0)

	mB, _ := build()
	tcB := DefaultTrainConfig()
	tcB.LossLastDays = 0
	trB := NewTrainer(mB, tcB)
	trB.TrainEpochPadded(d, 0)

	fa, fb := mA.Params().Flatten(), mB.Params().Flatten()
	for i := range fa {
		if math.Abs(fa[i]-fb[i]) > 1e-9 {
			t.Fatalf("padded vs per-user training diverged at %d: %v vs %v", i, fa[i], fb[i])
		}
	}
}

func TestGradCloneSharesValuesNotGrads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 4
	cfg.MLPHidden = 4
	m := tinyModel(cfg)
	c := m.gradClone()
	mp, cp := m.Params(), c.Params()
	// Values alias.
	mp[0].Value[0] = 123
	if cp[0].Value[0] != 123 {
		t.Fatalf("clone must share parameter values")
	}
	// Grads do not.
	cp[0].Grad[0] = 7
	if mp[0].Grad[0] == 7 {
		t.Fatalf("clone must own its gradients")
	}
}

func TestMaxHistoryTruncationInTraining(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 8
	cfg.MLPHidden = 8
	mtCfg := synth.DefaultMobileTab()
	mtCfg.Users = 10
	mtCfg.Days = 10
	d := synth.GenerateMobileTab(mtCfg)
	m := New(d.Schema, cfg)
	tc := DefaultTrainConfig()
	tc.LossLastDays = 0
	tc.MaxHistory = 3
	tr := NewTrainer(m, tc)
	// Must run without touching more than 3 sessions per user; just verify
	// it completes and records a curve bounded by 3×users examples.
	tr.TrainEpoch(d, 0)
	if tr.processed > 3*len(d.Users) {
		t.Fatalf("truncation ignored: processed %d", tr.processed)
	}
}

func TestEvaluateEmptyUser(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 4
	cfg.MLPHidden = 4
	m := tinyModel(cfg)
	d := &dataset.Dataset{Schema: tinySchema(), Start: 0, End: 30 * dataset.Day,
		Users: []*dataset.User{{ID: 0}}}
	scores, labels := m.EvaluateSessions(d, 0)
	if len(scores) != 0 || len(labels) != 0 {
		t.Fatalf("empty user must yield no predictions")
	}
}

// TestPredictIntoMatchesPredict holds the allocation-free inference forward
// to the reference bit for bit, and reuses one scratch across calls so a
// stale intermediate would show.
func TestPredictIntoMatchesPredict(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"latent-cross", Config{Cell: nn.CellGRU, HiddenDim: 6, MLPHidden: 5, LatentCross: true, Seed: 3}},
		{"no-latent-cross", Config{Cell: nn.CellGRU, HiddenDim: 6, MLPHidden: 5, LatentCross: false, Seed: 3}},
		{"dropout-configured", Config{Cell: nn.CellGRU, HiddenDim: 6, MLPHidden: 5, LatentCross: true, DropoutRate: 0.5, Seed: 4}},
		{"lstm", Config{Cell: nn.CellLSTM, HiddenDim: 4, MLPHidden: 7, LatentCross: true, Seed: 5}},
		{"minimal", Config{Cell: nn.CellGRU, HiddenDim: 4, MLPHidden: 3, LatentCross: true, Minimal: true, Seed: 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tinyModel(tc.cfg)
			u, _ := tinyUser(12, 11)
			states, _ := m.runUpdates(u, false)
			sc := m.NewPredictScratch()
			for i, s := range u.Sessions {
				h := states[i+1][:m.HiddenDim()]
				f := m.BuildPredictInput(s.Timestamp, s.Cat, int64(i)*3600, nil)
				hBefore, fBefore := h.Clone(), f.Clone()
				want := m.Predict(h, f)
				got := m.PredictInto(h, f, sc)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("session %d: PredictInto %v, Predict %v", i, got, want)
				}
				for j := range h {
					if h[j] != hBefore[j] {
						t.Fatalf("session %d: PredictInto mutated h", i)
					}
				}
				for j := range f {
					if f[j] != fBefore[j] {
						t.Fatalf("session %d: PredictInto mutated f", i)
					}
				}
			}
		})
	}
}
