package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/statestore"
	"repro/internal/synth"
)

// The chaos experiment drives the cluster through a seeded fault scenario
// and proves the hardened request path rides it out without losing a
// state. Topology: durable replicas A and B, a follower F shipping A's
// WAL, a router with the prober enabled fronting the ring. The cohort log
// replays in quarters:
//
//  1. steady — no faults; this quarter's p99 is the baseline the chaos
//     tail is judged against;
//  2. chaos — the scenario arms: B (the "slow replica") serves under
//     injected 50ms forward delays, predict forwards see injected
//     connection resets (absorbed in place by the router's retry
//     budget), and A→F replication frames are corrupted (the follower
//     drops the connection and re-bootstraps);
//  3. failover window — A is killed at replication lag zero; while the
//     prober converges on promoting F, A-owned predicts are answered
//     degraded (200 from a non-owner, flagged) instead of 502, and
//     B-owned traffic keeps flowing through the cutover. A-owned events
//     from this quarter are deferred, the way real clients would retry
//     them after the outage;
//  4. recovered — faults disarmed; the deferred traffic plus the final
//     quarter, with A's arcs now owned by the promoted follower.
//
// The final aggregate digest must equal the single-process sequential
// digest: every injected transport fault fires before the request is
// sent (so nothing half-applies), frame corruption is caught by the CRC
// and re-bootstrapped, and the kill happens at lag zero — chaos costs
// tail latency, never states.

// Chaos replays the cohort under the seeded fault scenario and reports
// per-phase latency, the degraded-predict accounting and the parity
// outcome.
func (l *Lab) Chaos() *Report {
	users := l.Scale.MobileTabUsers / 10
	if users < 20 {
		users = 20
	}
	mcfg := core.DefaultConfig()
	mcfg.HiddenDim = 24
	mcfg.Seed = l.Scale.Seed
	m := core.New(synth.MobileTabSchema(), mcfg)
	log := loadgen.ReplayLog(users, l.Scale.Seed)

	// Sequential baseline digest — the zero-lost-states gate.
	seqStore := serving.NewKVStore()
	proc := serving.NewStreamProcessor(m, seqStore)
	for _, e := range log {
		proc.OnSessionStart(e.SID, e.User, e.Ts, e.Cat)
		if e.Access {
			proc.OnAccess(e.SID, e.Ts+30)
		}
	}
	proc.Flush()
	wantDigest, wantKeys := serving.StateDigest(seqStore)

	type member struct {
		srv   *server.Server
		state *statestore.Store
		ts    *httptest.Server
		dir   string
	}
	openState := func() (*statestore.Store, string) {
		dir, err := os.MkdirTemp("", "pp-chaos-*")
		if err != nil {
			panic(fmt.Sprintf("chaos experiment: %v", err))
		}
		ss, err := statestore.Open(statestore.Options{Dir: dir, Shards: 4})
		if err != nil {
			panic(fmt.Sprintf("chaos experiment: %v", err))
		}
		return ss, dir
	}
	start := func(follower *replication.Follower, ss *statestore.Store, dir string) member {
		srv := server.New(server.Options{
			Model: m, Store: ss, State: ss, Threshold: 0.5, Follower: follower,
			Lanes: 2, MaxBatch: 16, MaxWait: time.Millisecond, LaneDepth: 1024,
		})
		if follower != nil {
			follower.Start()
		}
		return member{srv, ss, httptest.NewServer(srv.Handler()), dir}
	}
	assA, dirA := openState()
	assB, dirB := openState()
	a, b := start(nil, assA, dirA), start(nil, assB, dirB)
	folState, folDir := openState()
	f := replication.NewFollower(folState, a.ts.URL)
	fm := start(f, folState, folDir)
	members := []member{a, b, fm}
	defer func() {
		faults.Disarm()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, mem := range members {
			mem.srv.Shutdown(ctx)
			mem.ts.Close()
			mem.state.Close() //pplint:allow walerrcheck
			os.RemoveAll(mem.dir)
		}
	}()

	router, err := cluster.New(cluster.Options{
		Replicas:      []string{a.ts.URL, b.ts.URL},
		Followers:     map[string]string{a.ts.URL: fm.ts.URL},
		ProbeInterval: 50 * time.Millisecond,
		ProbeFails:    3,
		DataTimeout:   5 * time.Second,
	})
	if err != nil {
		panic(fmt.Sprintf("chaos experiment: %v", err))
	}
	router.StartProber()
	defer router.StopProber()
	rts := httptest.NewServer(router)
	defer rts.Close()

	run := func(part []loadgen.ReplayEvent, flush bool) *loadgen.LoadReport {
		rep, err := loadgen.RunLoad(loadgen.LoadOptions{
			BaseURL: rts.URL, Concurrency: 4, EventsPerPost: 16, Flush: flush,
			PredictEvery: 8, PredictInterval: 5 * time.Millisecond,
			RetryFailed: 200, RetryBackoff: 10 * time.Millisecond,
		}, part)
		if err != nil {
			panic(fmt.Sprintf("chaos experiment: %v", err))
		}
		return rep
	}
	waitLagZero := func() {
		deadline := time.Now().Add(30 * time.Second)
		for f.Status().LastSeq < a.state.WALSeq() && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if f.Status().LastSeq < a.state.WALSeq() {
			panic("chaos experiment: follower never reached lag zero")
		}
	}

	quarter := len(log) / 4

	// Phase 1: steady baseline, no faults.
	rep1 := run(log[:quarter], true)

	// Phase 2: arm the seeded scenario. Why these rules survive the parity
	// gate: delays never fail a request; resets fire in the transport
	// *before* the request is sent, and are scoped to /predict (read-only,
	// retried in place by the router) so no event batch can half-apply and
	// be re-sent; frame corruption is caught by the replication CRC and
	// answered with a re-bootstrap.
	bHost := strings.TrimPrefix(b.ts.URL, "http://")
	plan := &faults.Plan{
		Seed: l.Scale.Seed,
		Rules: []faults.Rule{
			// The slow replica: a sprinkling of 50ms stalls on B's events.
			{Point: "router.forward", Match: bHost + "/event", Action: faults.ActDelay, Prob: 0.005, DelayMs: 50},
			// Transient predict resets, absorbed by the router's retry budget.
			{Point: "router.forward", Match: "/predict", Action: faults.ActReset, Prob: 0.05},
			// Corrupted replication frames on A's stream (bounded so the
			// follower re-bootstraps a handful of times, not continuously).
			{Point: "repl.conn.read", Match: a.ts.URL, Action: faults.ActCorrupt, Prob: 0.01, Count: 5},
		},
	}
	if err := faults.Arm(plan); err != nil {
		panic(fmt.Sprintf("chaos experiment: %v", err))
	}
	rep2 := run(log[quarter:2*quarter], true)
	waitLagZero()

	// Phase 3: kill A mid-window. B-owned traffic keeps flowing (injected
	// delays still armed); A-owned events are deferred; A-owned predicts
	// during the prober's convergence window are answered degraded.
	ring := router.Ring()
	var window, deferred []loadgen.ReplayEvent
	for _, e := range log[2*quarter : 3*quarter] {
		if ring.OwnerOfUser(e.User) == b.ts.URL {
			window = append(window, e)
		} else {
			deferred = append(deferred, e)
		}
	}
	aUser := -1
	for u := 0; u < users*4 && aUser < 0; u++ {
		if ring.OwnerOfUser(u) == a.ts.URL {
			aUser = u
		}
	}
	if aUser < 0 {
		panic("chaos experiment: no user owned by replica A")
	}
	type killResult struct {
		degraded  int
		failovers int
		waited    time.Duration
	}
	killed := make(chan killResult, 1)
	go func() {
		time.Sleep(50 * time.Millisecond) // let the window load get going
		a.ts.CloseClientConnections()
		a.ts.Close()
		t0 := time.Now()
		body, _ := json.Marshal(server.PredictIn{User: aUser, Ts: 1 << 30, Cat: []int{0, 0}})
		res := killResult{}
		deadline := time.Now().Add(10 * time.Second)
		for router.Failovers() == 0 && time.Now().Before(deadline) {
			resp, err := http.Post(rts.URL+"/predict", "application/json", bytes.NewReader(body))
			if err == nil {
				var out server.PredictOut
				if resp.StatusCode == http.StatusOK &&
					json.NewDecoder(resp.Body).Decode(&out) == nil && out.Degraded {
					res.degraded++
				}
				resp.Body.Close()
			}
			time.Sleep(5 * time.Millisecond)
		}
		res.failovers = router.Failovers()
		res.waited = time.Since(t0)
		killed <- res
	}()
	rep3 := run(window, false)
	kr := <-killed
	if kr.failovers == 0 {
		panic("chaos experiment: prober never failed the dead primary over")
	}

	// Phase 4: disarm and recover — the deferred quarter plus the rest.
	// (Counters are snapshotted first: disarming drops the scenario.)
	counters := faults.Counters()
	faults.Disarm()
	rep4 := run(append(append([]loadgen.ReplayEvent(nil), deferred...), log[3*quarter:]...), true)

	_, gotDigest, err := loadgen.Digest(rts.URL)
	if err != nil {
		panic(fmt.Sprintf("chaos experiment digest: %v", err))
	}
	parity := "MATCH"
	if gotDigest != wantDigest {
		parity = "MISMATCH"
	}

	reps := []*loadgen.LoadReport{rep1, rep2, rep3, rep4}
	clientDegraded := kr.degraded
	totalRetries := 0
	for _, rep := range reps {
		clientDegraded += rep.DegradedPredicts
		totalRetries += rep.Retries
	}
	routerDegraded := int(router.DegradedPredicts())
	accounting := "accounted"
	if routerDegraded != clientDegraded {
		accounting = fmt.Sprintf("UNACCOUNTED (router %d != clients %d)", routerDegraded, clientDegraded)
	}
	p99Ratio := 0.0
	if rep1.EventLatency.P99Ms > 0 {
		p99Ratio = rep2.EventLatency.P99Ms / rep1.EventLatency.P99Ms
	}

	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fired := make([]string, 0, len(keys))
	for _, k := range keys {
		fired = append(fired, fmt.Sprintf("%s=%d", k, counters[k]))
	}

	r := &Report{
		ID:     "chaos",
		Title:  "Seeded chaos: injected delays, predict resets, corrupt replication frames and a mid-run crash",
		Header: []string{"PHASE", "SESSIONS", "EVENT p50 (ms)", "EVENT p99 (ms)", "RETRIES", "DEGRADED", "ERRORS"},
	}
	for _, row := range []struct {
		name string
		rep  *loadgen.LoadReport
	}{
		{"steady", rep1},
		{"chaos", rep2},
		{"failover window", rep3},
		{"recovered", rep4},
	} {
		r.Rows = append(r.Rows, []string{
			row.name, fmt.Sprintf("%d", row.rep.Sessions),
			fmt.Sprintf("%.2f", row.rep.EventLatency.P50Ms),
			fmt.Sprintf("%.2f", row.rep.EventLatency.P99Ms),
			fmt.Sprintf("%d", row.rep.Retries),
			fmt.Sprintf("%d", row.rep.DegradedPredicts),
			fmt.Sprintf("%d", row.rep.Errors),
		})
	}
	fs := f.Status()
	r.Notes = append(r.Notes,
		fmt.Sprintf("scenario seed %d; faults fired: %s", plan.Seed, strings.Join(fired, ", ")),
		fmt.Sprintf("chaos-phase event p99 is %.2fx the steady baseline (gate: <= 3x)", p99Ratio),
		fmt.Sprintf("follower survived %d corrupt frames with %d bootstraps, then reached lag zero before the kill", fs.CorruptFrames, fs.Bootstraps),
		fmt.Sprintf("prober promoted the follower %s after the kill; %d A-owned predicts answered degraded meanwhile, %d event-post retries total", kr.waited.Round(time.Millisecond), kr.degraded, totalRetries),
		fmt.Sprintf("degraded predicts: router served %d, clients observed %d — %s", routerDegraded, clientDegraded, accounting),
		fmt.Sprintf("final cluster digest vs single-process sequential digest: %s (%d keys) — chaos lost zero states", parity, wantKeys),
	)
	return r
}
