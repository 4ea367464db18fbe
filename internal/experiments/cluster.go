package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/synth"
)

// The cluster experiment is the end-to-end proof of the sharded serving
// tier, run at report scale: the deterministic cohort log is replayed
// (a) sequentially in one process and (b) over HTTP through a 3-replica
// consistent-hash cluster that reshards down to 2 replicas mid-replay via
// drain-and-handoff. The report shows how traffic and states spread across
// replicas and whether the aggregate digest stayed byte-identical to the
// sequential replay — the property that makes the cluster a drop-in
// replacement for the single process. (Cluster throughput is measured by
// bench/'s cluster-wire workload; this driver runs the volatile store, so
// it also exercises the wire-format branch of the transfer endpoints that
// the durable parity tests don't.)

// Cluster replays the cohort through a resharding 3-replica cluster and
// reports per-replica traffic plus the parity outcome.
func (l *Lab) Cluster() *Report {
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

	// 3-replica cluster (volatile stores — the wire-format transfer path).
	type member struct {
		srv   *server.Server
		store serving.Store
		ts    *httptest.Server
	}
	var members []member
	var urls []string
	for i := 0; i < 3; i++ {
		store := serving.NewShardedKVStore(8)
		srv := server.New(server.Options{
			Model: m, Store: store, Threshold: 0.5,
			Lanes: 2, MaxBatch: 16, MaxWait: time.Millisecond, LaneDepth: 1024,
		})
		ts := httptest.NewServer(srv.Handler())
		members = append(members, member{srv, store, ts})
		urls = append(urls, ts.URL)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, mem := range members {
			mem.srv.Shutdown(ctx)
			mem.ts.Close()
		}
	}()
	router, err := cluster.New(cluster.Options{Replicas: urls})
	if err != nil {
		panic(fmt.Sprintf("cluster experiment: %v", err))
	}
	rts := httptest.NewServer(router)
	defer rts.Close()

	runHalf := func(half []loadgen.ReplayEvent, flush bool) *loadgen.LoadReport {
		rep, err := loadgen.RunLoad(loadgen.LoadOptions{
			BaseURL: rts.URL, Concurrency: 4, EventsPerPost: 16, Flush: flush,
		}, half)
		if err != nil {
			panic(fmt.Sprintf("cluster experiment: %v", err))
		}
		return rep
	}
	t0 := time.Now()
	half := len(log) / 2
	r1 := runHalf(log[:half], false)
	moved, err := router.Reshard(urls[:2])
	if err != nil {
		panic(fmt.Sprintf("cluster experiment reshard: %v", err))
	}
	r2 := runHalf(log[half:], true)
	wall := time.Since(t0)

	_, gotDigest, err := loadgen.Digest(rts.URL)
	if err != nil {
		panic(fmt.Sprintf("cluster experiment digest: %v", err))
	}
	parity := "MATCH"
	if gotDigest != wantDigest {
		parity = "MISMATCH"
	}

	r := &Report{
		ID:     "cluster",
		Title:  "Sharded serving cluster: 3 replicas, mid-replay reshard to 2, digest vs sequential replay",
		Header: []string{"REPLICA", "EVENTS", "UPDATES", "KEYS", "SHED"},
	}
	for i, mem := range members {
		st := mem.srv.Stats()
		role := fmt.Sprintf("replica %d", i)
		if i == 2 {
			role += " (drained)"
		}
		r.Rows = append(r.Rows, []string{
			role, fmt.Sprintf("%d", st.Events), fmt.Sprintf("%d", st.UpdatesRun),
			fmt.Sprintf("%d", st.Store.Keys), fmt.Sprintf("%d", st.EventsShed),
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d sessions replayed in %s (%.0f sessions/s through the router), shed %d, errors %d",
			len(log), wall.Round(time.Millisecond),
			float64(len(log))/wall.Seconds(), r1.Shed+r2.Shed, r1.Errors+r2.Errors),
		fmt.Sprintf("mid-replay reshard moved %d states off replica 2 via drain-and-handoff", moved),
		fmt.Sprintf("cluster digest vs single-process sequential digest: %s (%d keys)", parity, wantKeys),
	)
	return r
}
