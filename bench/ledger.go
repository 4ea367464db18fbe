package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/statestore"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// The layer ledger. "In situ" figures come from decorators and counters
// read during the traced segments; "ledger" figures replay inputs taken
// from the workload through one layer's exported functions, single-
// threaded and in isolation, each pass recorded as a ledger.<layer>.<fn>
// span. The residual — end-to-end CPU per session minus the ledger stages
// on the workload's path — is reported as a finding, not hidden.

// counters is everything the program exports as running totals; layer
// metrics are differences between two snapshots.
type counters struct {
	statz     server.Statz
	perRep    []int64 // UpdatesRun per replica
	life      statestore.LifecycleStats
	attempts  int64
	retries   int64
	degradedP int64
	wireIO    int64
	httpIO    int64
}

func (f *fixture) counters() counters {
	c := counters{statz: f.stats()}
	for _, r := range f.replicas {
		c.perRep = append(c.perRep, r.srv.Stats().UpdatesRun)
	}
	if f.primary != nil {
		c.life = f.primary.Lifecycle()
	}
	if f.router != nil {
		for _, r := range f.replicas {
			fs := f.router.ForwardingStats()[r.url]
			c.attempts += fs.Attempts
			c.retries += fs.Retries
		}
		c.degradedP = f.router.DegradedPredicts()
	}
	if f.tr != nil {
		c.wireIO, c.httpIO = f.tr.wireIO.calls.Load(), f.tr.httpIO.calls.Load()
	}
	return c
}

// sumStatsDelta is what the servers counted between two snapshots.
func sumStatsDelta(after, before server.Statz) server.Statz {
	d := after
	d.Events -= before.Events
	d.EventsShed -= before.EventsShed
	d.Predicts -= before.Predicts
	d.PredictsShed -= before.PredictsShed
	d.ColdStarts -= before.ColdStarts
	d.UpdatesRun -= before.UpdatesRun
	d.Batches -= before.Batches
	d.Store.Gets -= before.Store.Gets
	d.Store.Puts -= before.Store.Puts
	d.Store.Misses -= before.Store.Misses
	return d
}

// lagSampler samples replication lag in records every 100 ms.
type lagSampler struct {
	mu      sync.Mutex
	samples []float64
	done    chan struct{}
}

func startLagSampler(f *fixture, stop <-chan struct{}) *lagSampler {
	l := &lagSampler{done: make(chan struct{})}
	sample := func() {
		lag := f.primary.WALSeq() - f.follower.Status().LastSeq
		l.mu.Lock()
		l.samples = append(l.samples, float64(max(lag, 0)))
		l.mu.Unlock()
	}
	go func() {
		defer close(l.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			sample()
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return l
}

func (l *lagSampler) wait() []float64 {
	<-l.done
	return sortedCopy(l.samples)
}

// ledgerRuns is how often each isolation pass runs; the fastest run is
// kept, which discards a run the shared box interrupted.
const ledgerRuns = 3

// perOp runs fn (which performs ops operations) ledgerRuns times, each
// under a ledger span, and returns the fastest run's nanoseconds per
// operation.
func perOp(tr *tracer, name string, ops int, fn func()) float64 {
	best := tr.ledgerSpan(name, fn)
	for i := 1; i < ledgerRuns; i++ {
		best = min(best, tr.ledgerSpan(name, fn))
	}
	return float64(best.Nanoseconds()) / float64(ops)
}

// ledgerReps sizes an isolation pass: enough repetitions of a
// per-session operation to run for tens of milliseconds.
func ledgerReps(smoke bool) int {
	if smoke {
		return 200
	}
	return 20000
}

// layerMetrics fills res.PerLayer from the traced segments and the ledger.
func layerMetrics(res *result, f *fixture, tr *tracer, cfg runConfig, untraced, traced []*segResult,
	before, after counters, lag []float64, catchup time.Duration, sample []session) error {
	out := res.PerLayer
	spec := f.spec
	for _, m := range perLayer {
		out.set(m.Name, 0, 0) // a layer off this workload's path reports 0
	}
	tracedSessions := 0
	var wallS float64
	var ack, late, predict, flush []float64
	var gcPause uint64
	var gcCycles uint32
	var reqBytes int64
	posts, events, predicts := 0, 0, 0
	for _, s := range traced {
		tracedSessions += s.sessions
		wallS += s.wall.Seconds()
		ack = append(ack, s.ev.ackMs...)
		late = append(append(late, s.ev.lateMs...), s.pr.lateMs...)
		predict = append(predict, s.pr.predictMs...)
		flush = append(flush, s.flushMs)
		gcPause += s.gcPause
		gcCycles += s.gcCycles
		reqBytes += s.bytes
		posts += s.ev.posts
		events += s.ev.events
		predicts += s.pr.predicts
	}
	n := float64(tracedSessions)

	// ---- in situ ----
	predict = sortedCopy(predict)
	out.set("predict_p95_ms", quantileOr(predict, 0.95), len(predict))
	if v, err := quantile(predict, 0.99); err == nil {
		out.set("server.predict_p99_ms", v, len(predict))
	} else {
		res.note("server.predict_p99_ms: %v", err)
	}
	ack = sortedCopy(ack)
	out.set("server.event_ack_p50_ms", quantileOr(ack, 0.50), len(ack))
	out.set("server.event_ack_p95_ms", quantileOr(ack, 0.95), len(ack))
	out.set("server.flush_drain_ms", median(flush), len(flush))
	d := sumStatsDelta(after.statz, before.statz)
	if d.Batches > 0 {
		out.set("server.mean_batch", float64(d.UpdatesRun)/float64(d.Batches), int(d.Batches))
	}
	out.set("server.batches", float64(d.Batches), 1)
	out.set("server.events_shed", float64(d.EventsShed), 1)
	out.set("server.predicts_shed", float64(d.PredictsShed), 1)
	out.set("server.cold_starts", float64(d.ColdStarts), 1)
	httpEvent, httpPredict := tr.httpEvent.sorted(), tr.httpPredict.sorted()
	if spec.HTTP {
		out.set("server.http_event_handle_us_p50", quantileOr(httpEvent, 0.5)/1e3, len(httpEvent))
		out.set("server.http_predict_handle_us_p50", quantileOr(httpPredict, 0.5)/1e3, len(httpPredict))
		out.set("server.http_io_calls_per_session", float64(after.httpIO-before.httpIO)/n, tracedSessions)
	}
	puts, gets := tr.storePut.sorted(), tr.storeGet.sorted()
	if spec.Store != storeSharded {
		out.set("statestore.put_us_p50", quantileOr(puts, 0.50)/1e3, len(puts))
		out.set("statestore.put_us_p95", quantileOr(puts, 0.95)/1e3, len(puts))
		out.set("statestore.get_us_p50", quantileOr(gets, 0.50)/1e3, len(gets))
		out.set("statestore.get_us_p95", quantileOr(gets, 0.95)/1e3, len(gets))
		out.set("statestore.puts", float64(d.Store.Puts), 1)
		out.set("statestore.gets", float64(d.Store.Gets), 1)
		if d.Store.Gets > 0 {
			out.set("statestore.miss_ratio", float64(d.Store.Misses)/float64(d.Store.Gets), int(d.Store.Gets))
		}
		out.set("statestore.wal_bytes_per_session", float64(after.life.WALBytes-before.life.WALBytes)/n, tracedSessions)
		out.set("statestore.snapshots", float64(after.life.Snapshots-before.life.Snapshots), 1)
	}
	if f.follower != nil {
		out.set("replication.lag_records_p50", quantileOr(lag, 0.5), len(lag))
		if len(lag) > 0 {
			out.set("replication.lag_records_max", lag[len(lag)-1], len(lag))
		}
		out.set("replication.catchup_ms", ms(catchup), 1)
	}
	if f.router != nil {
		out.set("cluster.forward_attempts", float64(after.attempts-before.attempts), 1)
		out.set("cluster.forward_retries", float64(after.retries-before.retries), 1)
		out.set("cluster.degraded_predicts", float64(after.degradedP-before.degradedP), 1)
		var most, total float64
		for i := range after.perRep {
			got := float64(after.perRep[i] - before.perRep[i])
			most, total = max(most, got), total+got
		}
		if total > 0 {
			out.set("cluster.owner_skew", most/(total/float64(len(after.perRep))), len(after.perRep))
		}
	}
	wireCalls := float64(after.wireIO-before.wireIO) / n
	out.set("wire.io_calls_per_session", wireCalls, tracedSessions)
	out.set("wire.bytes_per_session", float64(reqBytes)/n, tracedSessions)
	if posts > 0 {
		out.set("wire.events_per_post", float64(events)/float64(posts), posts)
	}
	out.set("runtime.gc_pause_ms_per_s", float64(gcPause)/1e6/wallS, int(gcCycles))
	out.set("runtime.gc_cycles", float64(gcCycles), 1)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out.set("runtime.heap_live_mb", float64(m.HeapAlloc)/(1<<20), 1)
	out.set("bench.gen_late_p95_ms", quantileOr(sortedCopy(late), 0.95), len(late))
	var rateOff, rateOn, cpuOff []float64
	for _, s := range untraced {
		rateOff = append(rateOff, float64(s.sessions)/s.wall.Seconds())
		cpuOff = append(cpuOff, float64(s.cpu.Nanoseconds())/float64(s.sessions))
	}
	for _, s := range traced {
		rateOn = append(rateOn, float64(s.sessions)/s.wall.Seconds())
	}
	if off := median(rateOff); off > 0 {
		out.set("bench.trace_overhead_pct", 100*(off-median(rateOn))/off, len(rateOn))
	}

	// ---- ledger ----
	batch := int(math.Round(out["server.mean_batch"].Value))
	batch = min(max(batch, 2), maxBatch)
	l, err := runLedger(tr, f, cfg, batch, sample)
	if err != nil {
		return err
	}
	for name, v := range l {
		out.set(name, v, 1)
	}

	// ---- shares: where a session's CPU goes, by layer group ----
	// Each group is priced per session from the ledger (isolated CPU) or
	// from a decorator's median (typical busy time; on a saturated box the
	// mean is inflated by preemption inside the timed call). The wire
	// transport is priced as its codec plus the calls it makes at the
	// net.Listener seam, each charged twice (the peer makes the matching
	// call) at the measured cost of one loopback read or write. The HTTP
	// plane is priced as the /event handler's median plus, per request,
	// what an empty POST costs through net/http.
	cpu := median(cpuOff)
	evPerSess := float64(events) / n
	postsPerSess := float64(posts) / n
	predictsPerSess := float64(predicts) / n
	io := l["bench.loopback_io_ns"]
	groups := map[string]float64{}
	groups["tensor_nn"] = l["nn.step_batch_ns_per_session"]
	groups["serving"] = math.Max(0, l["serving.finalize_ns_per_session"]-l["nn.step_batch_ns_per_session"]-l["serving.kv_put_ns"]-l["serving.kv_get_ns"]) +
		l["serving.predict_service_ns"]*predictsPerSess
	groups["store"] = quantileOr(puts, 0.5) + quantileOr(gets, 0.5)*(1+predictsPerSess)
	if f.follower != nil {
		groups["store"] += l["replication.apply_ns_per_record"]
	}
	if spec.HTTP {
		groups["server_http"] = quantileOr(httpEvent, 0.5)*postsPerSess + l["bench.http_floor_ns"]*(postsPerSess+predictsPerSess)
	} else {
		groups["serving"] += l["serving.ingest_ns_per_event"] * evPerSess
		hops := 1.0
		if f.router != nil {
			hops = 2
			groups["wire_cluster"] += (l["wire.split_ns_per_event"] + l["cluster.ring_lookup_ns"]) * evPerSess
		}
		groups["wire_cluster"] += hops*(l["wire.decode_ns_per_event"]*evPerSess+l["wire.frame_ns_per_post"]*postsPerSess) + 2*io*wireCalls
	}
	explained := 0.0
	for _, name := range []string{"tensor_nn", "serving", "store", "wire_cluster", "server_http"} {
		explained += groups[name]
		out.set("share."+name+"_pct", 100*groups[name]/cpu, 1)
	}
	out.set("share.residual_pct", 100*(cpu-explained)/cpu, 1)
	out.set("server.residual_ns_per_session", cpu-explained, len(cpuOff))
	res.note("ledger: %.0f of %.0f ns/session of process CPU explained at batch %d, %.2f events, %.4f posts and %.3f predicts per session",
		explained, cpu, batch, evPerSess, postsPerSess, predictsPerSess)
	return nil
}

var ledgerSink float64

// ledger is the state the isolation passes share: the workload's shapes,
// a sample of its sessions, and where results and the first error go.
type ledger struct {
	tr     *tracer
	f      *fixture
	out    map[string]float64
	err    error
	sample []session
	events int // events the sample encodes to
	reps   int // repetitions of a per-session operation
	batch  int // the realised finaliser batch
	rounds int // batches per pass
	rng    *tensor.RNG
	cell   *nn.GRUCell
}

func (l *ledger) fail(what string, err error) {
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("ledger %s: %w", what, err)
	}
}

// time runs one pass of ops operations and stores ns per operation.
func (l *ledger) time(metric, span string, ops int, fn func()) {
	l.out[metric] = perOp(l.tr, span, ops, fn)
}

// runLedger runs the isolation passes at the workload's shapes.
func runLedger(tr *tracer, f *fixture, cfg runConfig, batch int, sample []session) (map[string]float64, error) {
	reps := ledgerReps(cfg.smoke)
	if len(sample) > reps {
		sample = sample[:reps]
	}
	rng := tensor.NewRNG(11)
	l := &ledger{
		tr: tr, f: f, out: map[string]float64{}, sample: sample, reps: reps, batch: batch, rounds: max(1, reps/batch),
		rng: rng, cell: nn.NewGRUCell(f.model.UpdateDim(), f.spec.Dim, rng),
	}
	for _, s := range sample {
		l.events++
		if s.access {
			l.events++
		}
	}
	d, in := f.spec.Dim, f.model.UpdateDim()
	l.out["tensor.gemm_flops_per_session"] = float64(2 * 3 * d * (d + in))
	if f.spec.Tier == nn.TierF32 {
		l.compute32()
	} else {
		l.compute64()
	}
	l.out["nn.epilogue_ns_per_session"] = math.Max(0, l.out["nn.step_batch_ns_per_session"]-l.out["tensor.gemm_ns_per_session"]-l.out["tensor.matvec_ns_per_session"])
	l.predictHead()
	l.serving()
	l.wire()
	l.floors()
	if f.spec.Store == storeWAL {
		l.durable()
	}
	return l.out, l.err
}

func (l *ledger) randomize(v []float64) {
	for i := range v {
		v[i] = 2*l.rng.Float64() - 1
	}
}

func (l *ledger) randomize32(v []float32) {
	for i := range v {
		v[i] = float32(l.rng.Float64() - 0.5)
	}
}

// compute64 times the f64 tier: the recurrent GEMM and the input-side
// matvec on their own, then the GRU step, the model update, the feature
// encoder and the state codec that contain or surround them. The update
// input is a sampled session's one-hot context, as in production.
func (l *ledger) compute64() {
	model, cell, batch, rounds, reps := l.f.model, l.cell, l.batch, l.rounds, l.reps
	d, in := l.f.spec.Dim, model.UpdateDim()
	x := model.BuildUpdateInput(l.sample[0].ts, l.sample[0].cats(nil), l.sample[0].access, 3600, nil)
	whh, wih, hs, gh := tensor.NewMatrix(3*d, d), tensor.NewMatrix(3*d, in), tensor.NewMatrix(batch, d), tensor.NewMatrix(batch, 3*d)
	l.randomize(whh.Data)
	l.randomize(wih.Data)
	l.randomize(hs.Data)
	l.time("tensor.gemm_ns_per_session", "tensor.Matrix.MulMatT", rounds*batch, func() {
		for r := 0; r < rounds; r++ {
			hs.MulMatT(gh, whh)
		}
	})
	l.out["tensor.gemm_gflops"] = float64(2*3*d*d) / l.out["tensor.gemm_ns_per_session"]
	gi := tensor.NewVector(3 * d)
	l.time("tensor.matvec_ns_per_session", "tensor.Matrix.MulVec", reps, func() {
		for r := 0; r < reps; r++ {
			wih.MulVec(gi, x)
		}
	})
	states, xs, next := tensor.NewMatrix(batch, d), tensor.NewMatrix(batch, in), tensor.NewMatrix(batch, d)
	for b := 0; b < batch; b++ {
		copy(xs.Row(b), x)
	}
	arena := tensor.NewArena(cell.BatchScratchSize(batch))
	l.time("nn.step_batch_ns_per_session", "nn.GRUCell.StepInferBatch", rounds*batch, func() {
		for r := 0; r < rounds; r++ {
			arena.Reset()
			cell.StepInferBatch(next, states, xs, arena)
			states, next = next, states
		}
	})
	scratch, h0, h1 := tensor.NewVector(cell.ScratchSize()), tensor.NewVector(d), tensor.NewVector(d)
	l.time("nn.step_scalar_ns_per_session", "nn.GRUCell.StepInfer", reps, func() {
		for r := 0; r < reps; r++ {
			cell.StepInfer(h1, h0, x, scratch)
			h0, h1 = h1, h0
		}
	})
	marena := tensor.NewArena(model.BatchUpdateScratchSize(batch))
	l.time("core.update_batch_ns_per_session", "core.Model.UpdateStatesInto", rounds*batch, func() {
		for r := 0; r < rounds; r++ {
			marena.Reset()
			model.UpdateStatesInto(next, states, xs, marena)
			states, next = next, states
		}
	})
	ctx := tensor.NewVector(features.ContextDim(model.Schema))
	l.time("features.encode_ns_per_session", "features.ContextVector", len(l.sample), func() {
		var cat []int
		for _, s := range l.sample {
			cat = s.cats(cat)
			ctx.Zero()
			features.ContextVector(model.Schema, s.ts, cat, ctx)
		}
	})
	var enc []byte
	l.time("serving.codec_ns_per_state", "serving.EncodeDecodeHidden", reps, func() {
		for r := 0; r < reps; r++ {
			enc = serving.EncodeHiddenInto(enc, h0, int64(r))
			serving.DecodeHiddenInto(enc, h1)
		}
	})
}

// compute32 is compute64 on the f32 tier's types, which the program
// keeps as separate twins.
func (l *ledger) compute32() {
	model, cell, batch, rounds, reps := l.f.model, l.cell, l.batch, l.rounds, l.reps
	d, inPad, hPad := l.f.spec.Dim, cell.InputSize32(), (l.f.spec.Dim+3)&^3
	x := model.BuildUpdateInput32(l.sample[0].ts, l.sample[0].cats(nil), l.sample[0].access, 3600, nil)
	whh, wih, hs, gh := tensor.NewMatrix32(3*d, hPad), tensor.NewMatrix32(3*d, inPad), tensor.NewMatrix32(batch, hPad), tensor.NewMatrix32(batch, 3*d)
	l.randomize32(whh.Data)
	l.randomize32(wih.Data)
	l.randomize32(hs.Data)
	l.time("tensor.gemm_ns_per_session", "tensor.Matrix32.MulMatT", rounds*batch, func() {
		for r := 0; r < rounds; r++ {
			hs.MulMatT(gh, whh)
		}
	})
	l.out["tensor.gemm_gflops"] = float64(2*3*d*hPad) / l.out["tensor.gemm_ns_per_session"]
	gi := tensor.NewVector32(3 * d)
	l.time("tensor.matvec_ns_per_session", "tensor.Matrix32.MulVec", reps, func() {
		for r := 0; r < reps; r++ {
			wih.MulVec(gi, x)
		}
	})
	states, xs, next := tensor.NewMatrix32(batch, d), tensor.NewMatrix32(batch, inPad), tensor.NewMatrix32(batch, d)
	for b := 0; b < batch; b++ {
		copy(xs.Row(b), x)
	}
	arena := tensor.NewArena32(cell.BatchScratchSize32(batch))
	l.time("nn.step_batch_ns_per_session", "nn.GRUCell.StepInferBatch32", rounds*batch, func() {
		for r := 0; r < rounds; r++ {
			arena.Reset()
			cell.StepInferBatch32(next, states, xs, arena)
			states, next = next, states
		}
	})
	scratch, h0, h1 := tensor.NewVector32(cell.ScratchSize32()), tensor.NewVector32(d), tensor.NewVector32(d)
	l.time("nn.step_scalar_ns_per_session", "nn.GRUCell.StepInfer32", reps, func() {
		for r := 0; r < reps; r++ {
			cell.StepInfer32(h1, h0, x, scratch)
			h0, h1 = h1, h0
		}
	})
	marena := tensor.NewArena32(model.BatchUpdateScratchSize32(batch))
	l.time("core.update_batch_ns_per_session", "core.Model.UpdateStatesInto32", rounds*batch, func() {
		for r := 0; r < rounds; r++ {
			marena.Reset()
			model.UpdateStatesInto32(next, states, xs, marena)
			states, next = next, states
		}
	})
	ctx := tensor.NewVector32(features.ContextDim(model.Schema))
	l.time("features.encode_ns_per_session", "features.ContextVector32", len(l.sample), func() {
		var cat []int
		for _, s := range l.sample {
			cat = s.cats(cat)
			ctx.Zero()
			features.ContextVector32(model.Schema, s.ts, cat, ctx)
		}
	})
	var enc []byte
	l.time("serving.codec_ns_per_state", "serving.EncodeDecodeHidden32", reps, func() {
		for r := 0; r < reps; r++ {
			enc = serving.EncodeHiddenInto32(enc, h0, int64(r))
			serving.DecodeHiddenInto32(enc, h1)
		}
	})
}

// predictHead times RNNpredict, which is f64 on both tiers.
func (l *ledger) predictHead() {
	model := l.f.model
	hidden := tensor.NewVector(model.HiddenDim())
	l.randomize(hidden)
	pin := tensor.NewVector(model.PredictDim())
	l.time("core.predict_ns", "core.Model.Predict", len(l.sample), func() {
		var cat []int
		for _, s := range l.sample {
			cat = s.cats(cat)
			ledgerSink += model.Predict(hidden, model.BuildPredictInput(s.ts, cat, 3600, pin))
		}
	})
}

// serving times ingest with a discarding sink, the batch finaliser on the
// due sessions a capturing sink collected, and the prediction service and
// in-memory store on the states that finaliser left behind.
func (l *ledger) serving() {
	model := l.f.model
	discard := serving.NewStreamProcessor(model, serving.NewShardedKVStore(16))
	discard.SetSink(func(serving.DueSession) {})
	l.time("serving.ingest_ns_per_event", "serving.StreamProcessor.ingest", l.events, func() {
		replay(discard, l.sample)
	})
	var due []serving.DueSession
	capture := serving.NewStreamProcessor(model, serving.NewShardedKVStore(16))
	capture.SetSink(func(d serving.DueSession) { due = append(due, d) })
	replay(capture, l.sample)
	capture.Flush()
	kv := serving.NewShardedKVStore(16)
	fin, err := serving.NewBatchFinalizerTier(model, kv, maxBatch, l.f.spec.Tier)
	if err != nil {
		l.fail("NewBatchFinalizerTier", err)
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l.time("serving.finalize_ns_per_session", "serving.BatchFinalizer.Finalize", len(due), func() {
		for lo := 0; lo < len(due); lo += l.batch {
			fin.Finalize(due[lo:min(lo+l.batch, len(due))])
		}
	})
	runtime.ReadMemStats(&m1)
	l.out["serving.finalize_allocs_per_session"] = float64(m1.Mallocs-m0.Mallocs) / float64(ledgerRuns*len(due))

	keys := kv.Keys()
	svc := serving.NewPredictionService(model, kv, 0.5)
	l.time("serving.predict_service_ns", "serving.PredictionService.OnSessionStart", len(l.sample), func() {
		var cat []int
		for _, s := range l.sample {
			cat = s.cats(cat)
			ledgerSink += svc.OnSessionStart(int(s.user), s.ts, cat).Probability
		}
	})
	l.time("serving.kv_get_ns", "serving.ShardedKVStore.Get", l.reps, func() {
		for r := 0; r < l.reps; r++ {
			v, _ := kv.Get(keys[r%len(keys)])
			ledgerSink += float64(len(v))
		}
	})
	val, _ := kv.Get(keys[0])
	l.time("serving.kv_put_ns", "serving.ShardedKVStore.Put", l.reps, func() {
		for r := 0; r < l.reps; r++ {
			kv.Put(keys[r%len(keys)], val)
		}
	})
}

// wire times the event codec, the splicer and ring lookup on a 3-replica
// ring, and one post of the workload's size framed and read back.
func (l *ledger) wire() {
	var ev, sid []byte
	l.time("wire.encode_ns_per_event", "wire.AppendStartAccess", l.events, func() {
		var cat []int
		ev = ev[:0]
		for _, s := range l.sample {
			sid, cat = s.sid(sid), s.cats(cat)
			ev = wire.AppendStart(ev, int(s.user), s.ts, string(sid), cat)
			if s.access {
				ev = wire.AppendAccess(ev, int(s.user), s.ts+30, string(sid))
			}
		}
	})
	batchBytes := append(binary.AppendUvarint(nil, uint64(l.events)), ev...)
	l.time("wire.decode_ns_per_event", "wire.EventReader.Next", l.events, func() {
		var er wire.EventReader
		var e wire.Event
		l.fail("EventReader.Reset", er.Reset(batchBytes))
		for l.err == nil && er.More() {
			l.fail("EventReader.Next", er.Next(&e))
		}
	})
	ring, err := cluster.NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	if err != nil {
		l.fail("NewRing", err)
		return
	}
	var spl wire.Splicer
	l.time("wire.split_ns_per_event", "wire.Splicer.Split", l.events, func() {
		spl.Reset(ring.NumReplicas())
		l.fail("Splicer.Split", spl.Split(batchBytes, ring))
	})
	l.time("cluster.ring_lookup_ns", "cluster.Ring.OwnerIndexOfUser", len(l.sample), func() {
		for _, s := range l.sample {
			ledgerSink += float64(ring.OwnerIndexOfUser(int(s.user)))
		}
	})

	postEvents := min(l.f.spec.EventsPerPost, l.events)
	var one []byte
	var er wire.EventReader
	var e wire.Event
	l.fail("EventReader.Reset", er.Reset(batchBytes))
	for i := 0; i < postEvents && l.err == nil && er.More(); i++ {
		l.fail("EventReader.Next", er.Next(&e))
		if e.Start {
			one = wire.AppendStart(one, e.User, e.Ts, string(e.Sid), e.Cat)
		} else {
			one = wire.AppendAccess(one, e.User, e.Ts, string(e.Sid))
		}
	}
	var pipe bytes.Buffer
	fw := wire.NewWriter(bufio.NewWriter(&pipe))
	br := bufio.NewReader(&pipe)
	frames := max(1, l.reps/postEvents)
	l.time("wire.frame_ns_per_post", "wire.WriteEventsReadFrame", frames, func() {
		var buf []byte
		for r := 0; r < frames; r++ {
			must(fw.WriteEvents(uint64(r), postEvents, one))
			must(fw.Flush())
			_, p, err := wire.ReadFrame(br, buf)
			if err != nil {
				l.fail("ReadFrame", err)
				return
			}
			buf = p[:cap(p)]
		}
	})
}

// floors measures what the platform charges before any of the program's
// code runs: one loopback read or write, one empty POST through net/http.
func (l *ledger) floors() {
	l.tr.ledgerSpan("bench.loopbackIO", func() {
		ns, err := loopbackIO(l.reps / 4)
		l.fail("loopback io", err)
		l.out["bench.loopback_io_ns"] = ns
	})
	ns, err := httpFloor(l.tr, l.reps/4)
	l.fail("http floor", err)
	l.out["bench.http_floor_ns"] = ns
}

// durable times a forced snapshot of the run's store, recovery from a
// copy of what the run left on disk (the live store keeps serving the
// remaining checks), and Import on the recovered copy — the follower's
// apply step, WAL append included.
func (l *ledger) durable() {
	f := l.f
	l.out["statestore.snapshot_ms"] = ms(l.tr.ledgerSpan("statestore.Store.Snapshot", func() {
		l.fail("Snapshot", f.primary.Snapshot())
	}))
	dir := filepath.Join(f.dir, "recover")
	l.fail("copying the store directory", copyDir(filepath.Join(f.dir, "primary"), dir))
	var st *statestore.Store
	l.out["statestore.recover_ms"] = ms(l.tr.ledgerSpan("statestore.Open", func() {
		var err error
		st, err = statestore.Open(statestore.Options{Dir: dir, Codec: statestore.CodecF32})
		l.fail("Open", err)
	}))
	if st == nil {
		return
	}
	l.out["statestore.recover_keys"] = float64(st.Lifecycle().RecoveredKeys)
	var keys []string
	var stored [][]byte
	l.fail("Export", st.Export(func(string) bool { return len(keys) < l.reps }, func(k string, v []byte) error {
		keys, stored = append(keys, k), append(stored, append([]byte(nil), v...))
		return nil
	}))
	if len(keys) > 0 {
		l.time("replication.apply_ns_per_record", "statestore.Store.Import", l.reps, func() {
			for r := 0; r < l.reps; r++ {
				st.Import(keys[r%len(keys)], stored[r%len(keys)])
			}
		})
	}
	l.fail("closing the recovered store", st.Close())
}

// loopbackIO measures the CPU one read or write call on a loopback TCP
// connection costs this process, by ping-ponging a small message between
// two goroutines: the scheduler hand-off a real request pays is included.
func loopbackIO(rounds int) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	echoErr := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 256)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				if err == io.EOF {
					err = nil
				}
				echoErr <- err
				return
			}
			if _, err := c.Write(buf); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, err
	}
	msg := make([]byte, 256)
	var rerr error
	cpu0 := cpuTime()
	for r := 0; r < rounds && rerr == nil; r++ {
		if _, rerr = c.Write(msg); rerr == nil {
			_, rerr = io.ReadFull(c, msg)
		}
	}
	cpu := cpuTime() - cpu0
	c.Close()
	if err := <-echoErr; err != nil && rerr == nil {
		rerr = err
	}
	// Four calls per round trip: write, read, write, read.
	return float64(cpu.Nanoseconds()) / float64(4*rounds), rerr
}

// httpFloor measures the CPU one small POST costs this process on both
// ends of a loopback connection when the handler does nothing: what
// net/http and the sockets charge before any of the program's code runs.
func httpFloor(tr *tracer, requests int) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"accepted":0}`+"\n")
	})}
	go srv.Serve(l) // returns ErrServerClosed at Close
	defer srv.Close()
	c, err := dialHTTP(l.Addr().String(), nil)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	req := httpRequest("/event", 0, []byte(`[{"type":"access","session":"u1-s1","ts":1564642800}]`))
	var rerr error
	cpu0 := cpuTime()
	tr.ledgerSpan("bench.httpFloor", func() {
		for r := 0; r < requests && rerr == nil; r++ {
			_, rerr = c.roundTrip(req)
		}
	})
	return float64((cpuTime() - cpu0).Nanoseconds()) / float64(requests), rerr
}

func replay(p *serving.StreamProcessor, sample []session) {
	var sid []byte
	var cat []int
	for _, s := range sample {
		sid, cat = s.sid(sid), s.cats(cat)
		p.OnSessionStart(string(sid), int(s.user), s.ts, cat)
		if s.access {
			p.OnAccess(string(sid), s.ts+30)
		}
	}
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
