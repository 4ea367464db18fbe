package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/serving"
)

// Figure7 reproduces the online experiment: daily PR-AUC for cold-start
// users served by the RNN vs the GBDT over 30 days. The paper observes the
// RNN stabilising after ≈14 days and staying consistently ahead.
func (l *Lab) Figure7() *Report {
	res := l.onlineResult()
	r := &Report{
		ID:     "figure7",
		Title:  "Online PR-AUC for MobileTab (cold-start cohort)",
		Header: []string{"DAY", "RNN", "GBDT"},
	}
	fmtAUC := func(x float64) string {
		if math.IsNaN(x) {
			return "-"
		}
		return f3(x)
	}
	for day := 0; day < len(res.RNNDaily); day++ {
		r.Rows = append(r.Rows, []string{
			fint(day + 1), fmtAUC(res.RNNDaily[day]), fmtAUC(res.GBDTDaily[day]),
		})
	}
	var rnnLate, gbLate float64
	n := 0
	for day := 14; day < len(res.RNNDaily); day++ {
		if !math.IsNaN(res.RNNDaily[day]) && !math.IsNaN(res.GBDTDaily[day]) {
			rnnLate += res.RNNDaily[day]
			gbLate += res.GBDTDaily[day]
			n++
		}
	}
	if n > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("mean PR-AUC after day 14: RNN %.3f vs GBDT %.3f (paper: RNN consistently superior after stabilising)",
			rnnLate/float64(n), gbLate/float64(n)))
	}
	return r
}

// OnlineRecall reproduces the §9 production threshold comparison: recall at
// the threshold targeting 60% precision, and the relative lift in
// successful prefetches (paper: 51.1% vs 47.4% recall, +7.81% successful
// prefetches).
func (l *Lab) OnlineRecall() *Report {
	res := l.onlineResult()
	r := &Report{
		ID:     "online-recall",
		Title:  "Production threshold targeting 60% precision (paper: RNN 51.1% vs GBDT 47.4% recall, +7.81%)",
		Header: []string{"MODEL", "PRECISION", "RECALL"},
	}
	r.Rows = append(r.Rows,
		[]string{"RNN", f3(res.RNNPrecision), f3(res.RNNRecall)},
		[]string{"GBDT", f3(res.GBDTPrecision), f3(res.GBDTRecall)},
		[]string{"SUCCESSFUL PREFETCH GAIN", "", f1pc(res.SuccessfulPrefetchGain)},
	)
	return r
}

// onlineCache memoises the (expensive) online replay.
func (l *Lab) onlineResult() serving.OnlineResult {
	if l.online != nil {
		return *l.online
	}
	set := l.Models(DataMobileTab)
	builder := features.NewBuilder(l.Dataset(DataMobileTab).Schema) // MinTs 0: cold start
	res := serving.RunOnlineExperiment(set.RNN, set.GBDT, builder, set.Split.Test, serving.DefaultOnlineConfig())
	l.online = &res
	return res
}

// Parallelism measures the concurrent serving subsystem against the
// sequential baseline: session-finalisation throughput for the worker-pool
// stream processor over the sharded KV store at 1/4/8 lanes, and batched
// session-startup prediction throughput at the same fan-outs. The paper's
// production deployment partitions both tiers by user (§9); this driver
// quantifies what that buys on the local replay.
func (l *Lab) Parallelism() *Report {
	d := l.Dataset(DataMobileTab)

	// Throughput does not depend on the weights, so an untrained model at
	// the lab's shape keeps this driver train-free (like ServingCost).
	cfg := core.DefaultConfig()
	cfg.HiddenDim = l.Scale.HiddenDim
	cfg.MLPHidden = l.Scale.MLPHidden
	m := core.New(d.Schema, cfg)

	type ev struct {
		sid    string
		user   int
		ts     int64
		cat    []int
		access bool
	}
	var evs []ev
	const maxSessions = 4000
	for _, u := range d.Users {
		for i, s := range u.Sessions {
			evs = append(evs, ev{
				sid: fmt.Sprintf("u%d-s%d", u.ID, i), user: u.ID,
				ts: s.Timestamp, cat: s.Cat, access: s.Access,
			})
		}
		if len(evs) >= maxSessions {
			break
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].ts < evs[j].ts })

	replaySeq := func(batch int) time.Duration {
		p := serving.NewStreamProcessor(m, serving.NewKVStore())
		p.SetInferBatch(batch)
		t0 := time.Now()
		for _, e := range evs {
			p.OnSessionStart(e.sid, e.user, e.ts, e.cat)
			if e.access {
				p.OnAccess(e.sid, e.ts+30)
			}
		}
		p.Flush()
		return time.Since(t0)
	}
	replayPar := func(workers, batch int) time.Duration {
		p, err := serving.NewParallelStreamProcessor(m, serving.NewShardedKVStore(0), workers, batch, nn.TierF64)
		if err != nil {
			panic(err) // unreachable: the f64 tier needs no cell support
		}
		t0 := time.Now()
		for _, e := range evs {
			p.OnSessionStart(e.sid, e.user, e.ts, e.cat)
			if e.access {
				p.OnAccess(e.sid, e.ts+30)
			}
		}
		p.Close()
		return time.Since(t0)
	}

	r := &Report{
		ID:     "parallel",
		Title:  "Concurrent serving path vs sequential baseline (sharded KV + worker lanes)",
		Header: []string{"CONFIG", "WALL", "SESSIONS/S", "SPEEDUP"},
	}
	base := replaySeq(1)
	row := func(name string, dur time.Duration) {
		r.Rows = append(r.Rows, []string{
			name, dur.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(len(evs))/dur.Seconds()),
			fmt.Sprintf("%.2fx", float64(base)/float64(dur)),
		})
	}
	row("stream sequential", base)
	for _, bsz := range []int{8, 32} {
		row(fmt.Sprintf("stream sequential batch-%d", bsz), replaySeq(bsz))
	}
	for _, w := range []int{1, 4, 8} {
		row(fmt.Sprintf("stream %d-lane", w), replayPar(w, 1))
	}
	for _, w := range []int{4, 8} {
		row(fmt.Sprintf("stream %d-lane batch-32", w), replayPar(w, 32))
	}

	// Batched session-startup predictions over a warmed store.
	store := serving.NewShardedKVStore(0)
	warm := serving.NewStreamProcessor(m, store)
	reqs := make([]serving.PredictRequest, 0, len(evs))
	for _, e := range evs {
		reqs = append(reqs, serving.PredictRequest{UserID: e.user, Ts: e.ts, Cat: e.cat})
	}
	for _, e := range evs[:len(evs)/4] {
		warm.OnSessionStart(e.sid, e.user, e.ts, e.cat)
	}
	warm.Flush()
	svc := serving.NewPredictionService(m, store, 0.5)
	var predBase time.Duration
	for _, w := range []int{1, 4, 8} {
		t0 := time.Now()
		svc.OnSessionStartBatch(reqs, w)
		dur := time.Since(t0)
		if w == 1 {
			predBase = dur
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("predict batch x%d", w), dur.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(len(reqs))/dur.Seconds()),
			fmt.Sprintf("%.2fx", float64(predBase)/float64(dur)),
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("replayed %d sessions; per-user lanes keep update order, so parallel hidden states are byte-identical to sequential (see serving race/equivalence tests)", len(evs)))
	return r
}

// ServingCost reproduces the §9 serving-cost comparison at the paper's
// production configuration (128-dim hidden state).
func (l *Lab) ServingCost() *Report {
	set := l.Models(DataMobileTab)
	d := l.Dataset(DataMobileTab)

	// Cost accounting is about the production shape: hidden 128, MLP 128.
	cfg := core.DefaultConfig()
	cfg.HiddenDim = 128
	cfg.MLPHidden = 128
	prod := core.New(d.Schema, cfg)

	rep := serving.CompareCosts(prod, set.GBDT, d, serving.DefaultCostParams())
	r := &Report{
		ID:     "serving",
		Title:  "Serving cost per prediction (paper: ≈9.5× model compute, ≈20 vs 1 lookups, ≈10× net reduction)",
		Header: []string{"QUANTITY", "RNN", "GBDT"},
	}
	r.Rows = append(r.Rows,
		[]string{"KV lookups / prediction", fmt.Sprintf("%.0f", rep.RNNLookupsPerPrediction), fmt.Sprintf("%.0f", rep.GBDTLookupsPerPrediction)},
		[]string{"model compute (µs)", fmt.Sprintf("%.1f", rep.RNNModelNanos/1000), fmt.Sprintf("%.1f", rep.GBDTModelNanos/1000)},
		[]string{"model compute ratio (RNN/GBDT)", fmt.Sprintf("%.1fx", rep.ModelComputeRatio), ""},
		[]string{"serving cost (µs, incl. lookups)", fmt.Sprintf("%.0f", rep.RNNServingNanos/1000), fmt.Sprintf("%.0f", rep.GBDTServingNanos/1000)},
		[]string{"net serving reduction (GBDT/RNN)", fmt.Sprintf("%.1fx", rep.ServingCostRatio), ""},
		[]string{"state bytes / user", fint(rep.RNNStateBytes), fmt.Sprintf("%.0f (%.0f keys)", rep.AggStateBytesPerUser, rep.AggKeysPerUser)},
	)
	return r
}

// Batching reproduces the §7.1 claim: per-user parallel evaluation trains
// about twice as fast as padded batching on long-tailed histories.
func (l *Lab) Batching() *Report {
	d := l.ablationDataset()
	stats := core.PaddedBatchStats(d, l.Scale.BatchUsers, l.Scale.Seed)

	build := func() (*core.Model, *core.Trainer) {
		cfg := core.DefaultConfig()
		cfg.HiddenDim = l.Scale.HiddenDim
		cfg.MLPHidden = l.Scale.MLPHidden
		cfg.Seed = l.Scale.Seed
		m := core.New(d.Schema, cfg)
		tc := core.DefaultTrainConfig()
		tc.BatchUsers = l.Scale.BatchUsers
		tc.Seed = l.Scale.Seed
		return m, core.NewTrainer(m, tc)
	}

	_, trA := build()
	t0 := time.Now()
	trA.TrainEpoch(d, 0)
	perUser := time.Since(t0)

	_, trB := build()
	t0 = time.Now()
	_, padStats := trB.TrainEpochPadded(d, 0)
	padded := time.Since(t0)

	r := &Report{
		ID:     "batching",
		Title:  "Per-user parallelism vs padded batching (paper: 2× faster training)",
		Header: []string{"QUANTITY", "PER-USER", "PADDED"},
	}
	r.Rows = append(r.Rows,
		[]string{"recurrent steps", fint(stats.RealSteps), fint(stats.PaddedSteps)},
		[]string{"step waste factor", "1.00x", fmt.Sprintf("%.2fx", padStats.WasteFactor())},
		[]string{"epoch wall time", perUser.Round(time.Millisecond).String(), padded.Round(time.Millisecond).String()},
		[]string{"speedup", fmt.Sprintf("%.2fx", float64(padded)/float64(perUser)), ""},
	)
	r.Notes = append(r.Notes, "wall-time gap is below the step-waste factor because prediction/backprop work is not padded; the paper's 2x includes batch-framework overheads")
	return r
}

// ablationDataset is a reduced MobileTab population reused by the ablation
// experiments.
func (l *Lab) ablationDataset() *dataset.Dataset {
	if l.ablation == nil {
		d := l.Dataset(DataMobileTab)
		n := l.Scale.AblationUsers
		if n > len(d.Users) {
			n = len(d.Users)
		}
		l.ablation = &dataset.Dataset{Schema: d.Schema, Start: d.Start, End: d.End, Users: d.Users[:n]}
	}
	return l.ablation
}
