package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/serving"
)

// runConfig is one invocation for one workload.
type runConfig struct {
	spec     workloadSpec
	seed     uint64
	segments int  // timed segments (untraced run)
	rounds   int  // complete set-ups; setup_s is their median
	traced   bool // also run the decorated segments and the ledger
	outDir   string
	smoke    bool // tier-1 test size: skips the traffic pin
}

// result is what one workload run reports.
type result struct {
	Workload    string        `json:"workload"`
	OK          bool          `json:"ok"`
	Claim       any           `json:"claim"` // always null: the benchmark claims no gain
	Failures    []string      `json:"failures,omitempty"`
	Notes       []string      `json:"notes,omitempty"`
	Contended   bool          `json:"contended"`
	Attempted   int           `json:"attempted"`
	Failed      int           `json:"failed"`
	Fingerprint fingerprint   `json:"fingerprint"`
	SpeedFactor float64       `json:"speed_factor"`
	ProbeNs     float64       `json:"speed_probe_ns"`
	Raw         metricSet     `json:"-"` // end-to-end figures before the speed adjustment
	EndToEnd    metricSet     `json:"-"`
	PerLayer    metricSet     `json:"-"`
	Spans       []spanSummary `json:"-"`
	Segments    []segmentRow  `json:"segments"`
	TracePath   string        `json:"trace,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// segmentRow is one segment's contribution to the medians, kept so a
// reader can see the spread the median hides.
type segmentRow struct {
	Traced           bool    `json:"traced"`
	WallS            float64 `json:"wall_s"`
	SessionsPerS     float64 `json:"sessions_per_s"`
	CPUMsPerKSession float64 `json:"cpu_ms_per_ksession"`
	AllocsPerSession float64 `json:"allocs_per_session"`
	PredictP50Ms     float64 `json:"predict_p50_ms"`
	Predicts         int     `json:"predicts"`
	FlushMs          float64 `json:"flush_ms"`
}

// errRefused is a run the benchmark declines to make at all.
var errRefused = errors.New("refused")

// segResult is one segment's measurements.
type segResult struct {
	sessions int
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	gcPause  uint64
	gcCycles uint32
	flushMs  float64
	bytes    int64 // request bytes of the segment's event posts
	ev, pr   *connResult
}

// speedProbe collects readings of what one loopback read or write costs
// right now. The shared reference box alternates, over minutes, between a
// quiet phase and a contended one in which memory- and syscall-heavy code
// costs 30–50 % more CPU for the same work; a 30 s run sits inside one
// phase, so no reduction over its segments can remove the difference. The
// probe is benchmark code and kernel only — no change to the program can
// move it — and it follows the phases (run-level correlation with CPU per
// session 0.86–0.87 on the three non-compute-bound workloads), which
// makes it a control variate: time-based figures are divided by
//
//	factor = 1 + sensitivity * (median probe / reference probe - 1)
//
// Raw figures are always printed beside the adjusted ones.
type speedProbe struct {
	readings []float64
}

func (p *speedProbe) sample() error {
	ns, err := loopbackIO(speedProbeRounds)
	if err != nil {
		return fmt.Errorf("speed probe: %w", err)
	}
	p.readings = append(p.readings, ns)
	return nil
}

func (p *speedProbe) factor(sensitivity float64) float64 {
	if len(p.readings) == 0 {
		return 1
	}
	return 1 + sensitivity*(median(p.readings)/speedProbeRefNs-1)
}

func (s *segResult) row(traced bool) segmentRow {
	n := float64(s.sessions)
	return segmentRow{
		Traced: traced, WallS: s.wall.Seconds(), SessionsPerS: n / s.wall.Seconds(),
		CPUMsPerKSession: ms(s.cpu) / (n / 1000), AllocsPerSession: float64(s.mallocs) / n,
		PredictP50Ms: quantileOr(sortedCopy(s.pr.predictMs), 0.5), Predicts: len(s.pr.predictMs), FlushMs: s.flushMs,
	}
}

// runSegment sends one pre-encoded segment inside its own clock. The
// clock covers the flush that drains the finalisers, so a session only
// counts once its state is stored.
func (f *fixture) runSegment(load *segmentLoad) (*segResult, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()

	stop := make(chan struct{})
	eventsDone, predictsDone := f.gen.run(f.spec, load, start, stop)
	seg := &segResult{sessions: load.sessions, bytes: load.bytes}
	seg.ev = eventsDone()
	if f.spec.Open {
		seg.pr = predictsDone() // the whole schedule is part of the segment
	}
	flushStart := time.Now()
	_, err := f.flush()
	seg.flushMs = ms(time.Since(flushStart))
	seg.wall = time.Since(start)
	seg.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	close(stop)
	if !f.spec.Open {
		seg.pr = predictsDone()
	}
	seg.mallocs = m1.Mallocs - m0.Mallocs
	seg.gcPause = m1.PauseTotalNs - m0.PauseTotalNs
	seg.gcCycles = m1.NumGC - m0.NumGC
	if err != nil {
		return seg, err
	}
	if seg.ev.err != nil {
		return seg, seg.ev.err
	}
	return seg, seg.pr.err
}

// precheck replays the prefix through a fresh instance of the workload's
// configuration and requires its state digest to equal the sequential
// oracle's, byte for byte.
func precheck(spec workloadSpec, dir string, load *segmentLoad, wantDigest string, wantKeys int) error {
	f, err := newFixture(spec, dir, false, nil)
	if err != nil {
		return err
	}
	// The prefix is replayed as fast as it is accepted on every workload:
	// this checks outputs, not latency.
	closed := spec
	closed.Open, closed.PredictEvery = false, 5*time.Millisecond
	stop := make(chan struct{})
	close(stop) // no predict sampling during the check beyond the first request
	eventsDone, predictsDone := f.gen.run(closed, load, time.Now(), stop)
	ev, pr := eventsDone(), predictsDone()
	_, ferr := f.flush()
	var digest string
	var keys int
	var derr error
	if spec.Store == storeWAL {
		_, derr = f.awaitFollower(30 * time.Second)
	}
	if derr == nil {
		digest, keys, derr = f.digest()
	}
	var followerDigest string
	if spec.Store == storeWAL && derr == nil {
		followerDigest, _ = serving.StateDigest(f.followerStore)
	}
	cerr := f.close()
	switch {
	case ev.err != nil:
		return fmt.Errorf("pre-check replay: %w", ev.err)
	case pr.err != nil:
		return fmt.Errorf("pre-check predict: %w", pr.err)
	case ferr != nil:
		return fmt.Errorf("pre-check flush: %w", ferr)
	case derr != nil:
		return fmt.Errorf("pre-check digest: %w", derr)
	case cerr != nil:
		return fmt.Errorf("pre-check teardown: %w", cerr)
	case ev.sessions != load.sessions:
		return fmt.Errorf("pre-check: %d of %d sessions accepted", ev.sessions, load.sessions)
	case digest != wantDigest || keys != wantKeys:
		return fmt.Errorf("digest_mismatch: served configuration holds %d states with digest %s, sequential replay %d states with digest %s",
			keys, digest, wantKeys, wantDigest)
	case spec.Store == storeWAL && followerDigest != digest:
		return fmt.Errorf("digest_mismatch: follower digest %s, primary %s", followerDigest, digest)
	}
	return nil
}

// scratchDir is where this process's durable stores write; it is removed
// when the run ends.
func scratchDir(cfg runConfig) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("run-%d", os.Getpid()))
}

// setupOnce is one complete program set-up: the digest pre-check on a
// fresh configuration, then the fixture that will carry the timed
// segments, preloaded and warmed by one untimed segment.
func setupOnce(cfg runConfig, round int, tr *tracer, pre, warm *segmentLoad, wantDigest string, wantKeys int) (*fixture, time.Duration, error) {
	start := time.Now()
	dir := filepath.Join(scratchDir(cfg), fmt.Sprintf("round-%d", round))
	if err := precheck(cfg.spec, filepath.Join(dir, "precheck"), pre, wantDigest, wantKeys); err != nil {
		return nil, 0, err
	}
	f, err := newFixture(cfg.spec, filepath.Join(dir, "main"), true, tr)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.runSegment(warm); err != nil {
		f.close()
		return nil, 0, fmt.Errorf("warm-up segment: %w", err)
	}
	return f, time.Since(start), nil
}

// runWorkload performs one run. An error means the run could not be made
// (refusal, set-up failure); a failed check is reported in result.
func runWorkload(cfg runConfig) (*result, error) {
	spec := cfg.spec
	res := &result{Workload: spec.Name, Fingerprint: machineFingerprint(cfg), EndToEnd: metricSet{}}
	if spec.Replicas > 0 && runtime.GOMAXPROCS(0) < 2 {
		return nil, fmt.Errorf("%w: %s puts a router and %d replicas in one process and measures nothing at GOMAXPROCS=%d; it needs at least 2",
			errRefused, spec.Name, spec.Replicas, runtime.GOMAXPROCS(0))
	}
	if spec.Replicas > 0 && runtime.NumCPU() <= 2 {
		res.note("%d replicas share %d cores: this measures forwarding overhead, not scale-out", spec.Replicas, runtime.NumCPU())
	}
	// Runs last, after the fixture has closed its stores.
	defer os.RemoveAll(scratchDir(cfg))
	spinBefore := calibSpin()

	segments := cfg.segments
	if cfg.traced {
		segments = 1 + tracedSegments
	}
	genStart := time.Now()
	traffic := generateLog(spec.Users, cfg.seed)
	genS := time.Since(genStart).Seconds()
	if len(traffic.log) == 0 {
		return nil, fmt.Errorf("cohort of %d users has no sessions", spec.Users)
	}
	if !cfg.smoke {
		if err := checkDrift(spec, cfg.seed, traffic); err != nil {
			return nil, err
		}
	}

	nConns, _ := generatorConns(spec)
	prefix := traffic.slice(0, min(precheckSessions, spec.WarmSessions))
	wantDigest, wantKeys, err := referenceDigest(spec, prefix)
	if err != nil {
		return nil, err
	}
	pre := encodeSegment(spec, prefix, nConns)
	warm := encodeSegment(spec, traffic.slice(0, spec.WarmSessions), nConns)

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var fx *fixture
	var setups []float64
	var probe speedProbe
	for round := 0; round < cfg.rounds; round++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return nil, fmt.Errorf("set-up round %d teardown: %w", round-1, err)
			}
		}
		if err := probe.sample(); err != nil {
			return nil, err
		}
		var took time.Duration
		fx, took, err = setupOnce(cfg, round, tr, pre, warm, wantDigest, wantKeys)
		if err != nil {
			return nil, fmt.Errorf("set-up round %d: %w", round, err)
		}
		setups = append(setups, took.Seconds())
	}
	pre, warm = nil, nil

	// ---- timed segments ----
	var segs []*segResult
	sent := spec.WarmSessions
	before := fx.counters()
	var lagStop chan struct{}
	var lag *lagSampler
	for k := 0; k < segments; k++ {
		load := encodeSegment(spec, traffic.slice(sent, sent+spec.SegSessions), nConns)
		if tr != nil && k == 1 {
			tr.on.Store(true)
			before = fx.counters()
			if fx.follower != nil {
				lagStop = make(chan struct{})
				lag = startLagSampler(fx, lagStop)
			}
		}
		if err := probe.sample(); err != nil {
			res.fail("%v", err)
			break
		}
		seg, err := fx.runSegment(load)
		if err != nil {
			res.fail("segment %d: %v", k, err)
			break
		}
		segs = append(segs, seg)
		sent += spec.SegSessions
		res.Segments = append(res.Segments, seg.row(tr != nil && k >= 1))
	}
	var lagSamples []float64
	if lag != nil {
		close(lagStop)
		lagSamples = lag.wait()
	}
	var catchup time.Duration
	if fx.follower != nil && len(res.Failures) == 0 {
		if catchup, err = fx.awaitFollower(30 * time.Second); err != nil {
			res.fail("%v", err)
		}
	}
	if tr != nil {
		tr.on.Store(false)
	}
	after := fx.counters()
	checkRun(res, fx, segs, sent, traffic.distinctUsers(sent))

	// ---- end-to-end metrics ----
	untraced := segs
	if tr != nil && len(segs) > 1 {
		untraced = segs[:1]
	}
	notePredictTail(res, untraced)
	if err := probe.sample(); err != nil {
		res.fail("%v", err)
	}
	res.SpeedFactor = probe.factor(spec.SpeedSensitivity)
	res.ProbeNs = median(probe.readings)
	res.Raw = metricSet{}
	res.Raw.set("setup_s", median(setups), len(setups))
	summarizeSegments(res, res.Segments[:len(untraced)], res.Raw)
	adjustForSpeed(spec, res)

	if tr != nil && len(segs) > 1 && len(res.Failures) == 0 {
		res.PerLayer = metricSet{}
		traced := segs[1:]
		if err := layerMetrics(res, fx, tr, cfg, untraced, traced, before, after, lagSamples, catchup, traffic.slice(sent-spec.SegSessions, sent)); err != nil {
			res.fail("%v", err)
		}
		res.PerLayer.set("bench.input_gen_s", genS, 1)
		res.PerLayer.set("bench.speed_probe_ns", res.ProbeNs, len(probe.readings))
		res.PerLayer.set("bench.speed_factor", res.SpeedFactor, 1)
		res.PerLayer.set("bench.raw_sessions_per_s", res.Raw["sessions_per_s"].Value, 1)
		res.PerLayer.set("bench.raw_cpu_ms_per_ksession", res.Raw["cpu_ms_per_ksession"].Value, 1)
		res.PerLayer.set("bench.calib_spin_ms_before", spinBefore, 1)
	}

	spinAfter := calibSpin()
	if res.PerLayer != nil {
		res.PerLayer.set("bench.calib_spin_ms_after", spinAfter, 1)
	}
	if lo, hi := min(spinBefore, spinAfter), max(spinBefore, spinAfter); hi > 1.1*lo {
		res.Contended = true
		res.note("calibration loop took %.1f ms before and %.1f ms after the run: the box was contended", spinBefore, spinAfter)
	}
	res.EndToEnd.set("peak_mem_mb", peakMemMB(), 1)

	if tr != nil {
		if res.TracePath, err = tr.write(cfg.outDir, spec.Name); err != nil {
			res.fail("%v", err)
		}
		res.Spans = tr.summarize() // after write, which links children to parents
	}
	if err := fx.close(); err != nil {
		res.fail("teardown: %v", err)
	}
	res.OK = len(res.Failures) == 0
	return res, nil
}

// checkRun is the correctness check after the timed run: everything sent
// was accepted and finalised, the store holds one state per user, nothing
// failed or degraded, and a follower holds what its primary holds. It also
// counts the operations and reads the per-user state size.
func checkRun(res *result, fx *fixture, segs []*segResult, sent, users int) {
	spec := fx.spec
	acked, degraded := 0, 0
	for _, s := range segs {
		acked += s.ev.sessions
		degraded += s.pr.degraded
		res.Attempted += s.ev.posts + s.pr.predicts + s.pr.predShed
		res.Failed += s.ev.sheds + s.pr.predShed + s.pr.degraded
	}
	if want := len(segs) * spec.SegSessions; acked != want {
		res.fail("%d sessions sent, %d accepted", want, acked)
	}
	final := fx.stats()
	if final.UpdatesRun != int64(sent) {
		res.fail("updates_run = %d, sessions sent = %d", final.UpdatesRun, sent)
	}
	// Cohort user ids are a subset of the preloaded ids.
	if wantKeys := max(spec.Preload, users); final.Store.Keys != wantKeys {
		res.fail("store holds %d keys, traffic had %d distinct users", final.Store.Keys, wantKeys)
	}
	if degraded > 0 {
		res.fail("%d degraded predicts", degraded)
	}
	if final.DecodeFailures > 0 {
		res.fail("%d stored states failed to decode", final.DecodeFailures)
	}
	if err := fx.storeErr(); err != nil {
		res.fail("store error: %v", err)
	}
	if final.Store.Keys > 0 {
		res.EndToEnd.set("state_bytes_per_user", float64(final.Store.BytesStored)/float64(final.Store.Keys), final.Store.Keys)
	}
	if fx.follower != nil && len(res.Failures) == 0 {
		pd, pk := serving.StateDigest(fx.primary)
		fd, fk := serving.StateDigest(fx.followerStore)
		if pd != fd || pk != fk {
			res.fail("digest_mismatch: follower holds %d states with digest %s, primary %d with %s", fk, fd, pk, pd)
		}
	}
}

// quietWindow reduces per-segment figures to one. Interference on a
// shared box is one-sided: a neighbour can only make a segment slower or
// costlier, never faster, and it comes in episodes that outlast several
// segments. The median of the segments therefore moves with the box; the
// best segments do not. The second-best is reported (the best, below four
// segments), which still discards one freak reading.
func quietWindow(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if higherIsBetter {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	if len(s) >= 4 {
		return s[1]
	}
	return s[0]
}

// summarizeSegments reduces the segments' rows to the reported figures:
// rates and CPU cost by the quiet-window rule, counts and latency medians
// by the median over the segments.
func summarizeSegments(res *result, rows []segmentRow, out metricSet) {
	var rate, cpu, allocs, p50 []float64
	predicts := 0
	for _, r := range rows {
		rate = append(rate, r.SessionsPerS)
		cpu = append(cpu, r.CPUMsPerKSession)
		allocs = append(allocs, r.AllocsPerSession)
		predicts += r.Predicts
		if r.Predicts > 0 {
			p50 = append(p50, r.PredictP50Ms)
		} else {
			res.note("predict_p50_ms: a segment finished without a predict reply")
		}
	}
	out.set("sessions_per_s", quietWindow(rate, true), len(rate))
	out.set("cpu_ms_per_ksession", quietWindow(cpu, false), len(cpu))
	out.set("allocs_per_session", median(allocs), len(allocs))
	out.set("predict_p50_ms", median(p50), predicts)
}

// notePredictTail prints the highest percentile of the run's predict
// latencies that has ten samples beyond it.
func notePredictTail(res *result, segs []*segResult) {
	var pooled []float64
	for _, s := range segs {
		pooled = append(pooled, s.pr.predictMs...)
	}
	if p, v := highestQuantile(sortedCopy(pooled), 0.5, 0.9, 0.95, 0.99, 0.999); p > 0 {
		res.note("predict latency over the run: p%g = %.3f ms is the highest percentile with ten samples beyond it (n=%d)", 100*p, v, len(pooled))
	}
}

// adjustForSpeed copies the raw figures into the reported set, dividing
// the time-based ones by the run's speed factor. An open loop's rate is
// set by its schedule, not by the box, and stays as measured; so does a
// latency dominated by the batcher's fixed wait.
func adjustForSpeed(spec workloadSpec, res *result) {
	for _, d := range endToEnd {
		m, ok := res.Raw[d.Name]
		if !ok {
			continue
		}
		switch {
		case d.Name == "setup_s" || d.Name == "cpu_ms_per_ksession":
			m.Value = m.Value / res.SpeedFactor
		case d.Name == "sessions_per_s" && !spec.Open:
			m.Value = m.Value * res.SpeedFactor
		}
		res.EndToEnd[d.Name] = m
	}
}
