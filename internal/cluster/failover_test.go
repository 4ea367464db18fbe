package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/statestore"
	"repro/internal/tensor"
)

// wireHidden builds a wire-format hidden state with deterministic contents
// (the prober test writes states directly; no replay is involved).
func wireHidden(dim int, seed uint64, ts int64) []byte {
	rng := tensor.NewRNG(seed)
	h := tensor.NewVector(dim)
	rng.FillUniform(h, -1, 1)
	return serving.EncodeHiddenInto(nil, h, ts)
}

// shutdownKilled releases a replica whose listener was already torn down
// by kill: the server and store still need a graceful stop so leakcheck
// sees no stragglers.
func shutdownKilled(t *testing.T, r *replica) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.srv.Shutdown(ctx); err != nil {
		t.Fatalf("killed replica shutdown: %v", err)
	}
	if err := r.state.Close(); err != nil {
		t.Fatal(err)
	}
}

// followerReplica is a replica running in follower mode: its server mounts
// the /replicate admin endpoints over a started replication client.
type followerReplica struct {
	*replica
	fol *replication.Follower
}

// startFollower brings up a ppserve-shaped follower: -replica-of primary
// (or a bare -follow standby when primary is "").
func startFollower(t *testing.T, m *core.Model, primary string) *followerReplica {
	t.Helper()
	ss, err := statestore.Open(statestore.Options{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	fol := replication.NewFollower(ss, primary)
	srv := server.New(server.Options{
		Model: m, Store: ss, State: ss, Threshold: 0.5,
		Follower: fol,
		Lanes:    2, MaxBatch: 8, MaxWait: time.Millisecond, LaneDepth: 256,
	})
	fol.Start()
	return &followerReplica{
		replica: &replica{srv: srv, state: ss, ts: httptest.NewServer(srv.Handler())},
		fol:     fol,
	}
}

// waitReplicated polls until the follower has applied everything the
// primary has committed (replication lag zero).
func waitReplicated(t *testing.T, f *followerReplica, primary *replica) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := f.fol.Status(); st.Connected && st.LastSeq >= primary.state.WALSeq() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never reached the primary's position: %+v vs wal-seq %d",
		f.fol.Status(), primary.state.WALSeq())
}

// kill severs a replica abruptly: the listener closes and every live
// connection (including the hijacked replication session) is torn down,
// so probes fail and the follower sees a dropped link — the in-process
// stand-in for kill -9 (the CI smoke covers the real signal).
func kill(r *replica) {
	r.ts.CloseClientConnections()
	r.ts.Close()
}

// TestRouterFailoverParity is the failover correctness gate: a primary
// dies at replication lag zero, the router promotes its follower under the
// write lock, and the replay finishes through the new topology — final
// states byte-identical to sequential replay, zero unexpected cold starts,
// zero errors after cutover.
func TestRouterFailoverParity(t *testing.T) {
	m := testModel(t, 16)
	log := server.ReplayLog(24, 5)
	seq := seqReplay(m, log)

	a, b := startReplica(t, m), startReplica(t, m)
	fa := startFollower(t, m, a.ts.URL)
	router, err := New(Options{
		Replicas:  []string{a.ts.URL, b.ts.URL},
		Followers: map[string]string{a.ts.URL: fa.ts.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(router)
	defer rts.Close()

	// Phase 1 flushes, so every state is committed; then drive lag to 0
	// before the kill — the promotion guarantee covers acknowledged
	// records, not the dead primary's unshipped window.
	half := len(log) / 2
	runHalf(t, rts.URL, log[:half], true)
	waitReplicated(t, fa, a)

	kill(a)
	if err := router.Failover(a.ts.URL); err != nil {
		t.Fatalf("failover: %v", err)
	}
	if got := router.Failovers(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	for _, u := range router.Ring().Replicas() {
		if u == a.ts.URL {
			t.Fatal("dead replica still in the ring")
		}
	}
	if st := fa.fol.Status(); !st.Promoted {
		t.Fatal("follower not promoted")
	}

	// Phase 2 runs entirely on the new topology and must be clean.
	runHalf(t, rts.URL, log[half:], true)

	keys, dg, err := server.Digest(rts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, wantKeys := serving.StateDigest(seq)
	if dg != wantDigest || keys != wantKeys {
		t.Fatalf("post-failover digest %s (%d keys), want %s (%d keys)", dg, keys, wantDigest, wantKeys)
	}
	assertClusterMatchesSequential(t, seq, unionStates(t, b, fa.replica))

	// Zero unexpected cold starts across the failover: the promoted
	// follower held every state the dead primary had acknowledged, so the
	// only misses are each user's first session.
	if want, got := int64(distinctUsers(log)), totalMisses(a, b, fa.replica); got != want {
		t.Fatalf("store misses %d, want %d — the failover caused cold starts", got, want)
	}

	b.stop(t)
	fa.stop(t)
	shutdownKilled(t, a)
}

// TestFailoverRefusesFollowerMidBootstrap promotes a follower whose
// bootstrap is still streaming. Its store was wiped and is only partly
// re-imported, so the router must keep the dead replica in the ring,
// record why in last_failover_err and return the error, rather than hand
// the follower arcs whose states it does not hold.
func TestFailoverRefusesFollowerMidBootstrap(t *testing.T) {
	defer faults.Disarm()
	m := testModel(t, 16)
	a, b := startReplica(t, m), startReplica(t, m)
	for i := 0; i < 4000; i++ {
		a.state.Put(fmt.Sprintf("h:%d", i), wireHidden(16, uint64(i)+1, int64(1000+i)))
	}
	// The follower's ninth read on its link sleeps. The first reads carry
	// the upgrade response, fBootStart and some entries; the bootstrap
	// spans far more than nine reads, so the sleep lands inside it and
	// the promotion below closes the link before fBootEnd can arrive.
	if err := faults.Arm(&faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Point: "repl.conn.read", Match: a.ts.URL, Action: faults.ActDelay, DelayMs: 2000, After: 8, Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	fa := startFollower(t, m, a.ts.URL)
	deadline := time.Now().Add(10 * time.Second)
	for faults.Counters()["repl.conn.read/"+faults.ActDelay] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the bootstrap never reached the stalled read: %+v", fa.fol.Status())
		}
		time.Sleep(time.Millisecond)
	}

	router, err := New(Options{
		Replicas:  []string{a.ts.URL, b.ts.URL},
		Followers: map[string]string{a.ts.URL: fa.ts.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Failover(a.ts.URL); err == nil {
		t.Fatal("a follower promoted mid-bootstrap took over the dead replica's arcs")
	}
	if got := router.Failovers(); got != 0 {
		t.Fatalf("failovers = %d, want 0", got)
	}
	inRing := false
	for _, u := range router.Ring().Replicas() {
		inRing = inRing || u == a.ts.URL
	}
	if !inRing {
		t.Fatal("a refused failover took the dead replica out of the ring")
	}
	router.healthMu.Lock()
	lastErr := router.lastFailoverErr
	router.healthMu.Unlock()
	if lastErr == "" {
		t.Fatal("a refused failover left last_failover_err empty")
	}

	fa.stop(t)
	a.stop(t)
	b.stop(t)
}

// TestProberAutoFailoverAndRereplication covers the automatic path: the
// prober declares the dead primary, fails it over without operator action,
// and retargets a spare at the promoted replica to restore redundancy.
func TestProberAutoFailoverAndRereplication(t *testing.T) {
	m := testModel(t, 16)
	a, b := startReplica(t, m), startReplica(t, m)
	fa := startFollower(t, m, a.ts.URL)
	spare := startFollower(t, m, "") // standby: no primary until re-replication
	router, err := New(Options{
		Replicas:      []string{a.ts.URL, b.ts.URL},
		Followers:     map[string]string{a.ts.URL: fa.ts.URL},
		Spares:        []string{spare.ts.URL},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  time.Second,
		ProbeFails:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.StopProber()

	for i := 0; i < 10; i++ {
		a.state.Put(fmt.Sprintf("h:%d", i), wireHidden(16, uint64(i)+1, int64(1000+i)))
	}
	waitReplicated(t, fa, a)
	router.StartProber()

	kill(a)
	deadline := time.Now().Add(10 * time.Second)
	for router.Failovers() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if router.Failovers() != 1 {
		t.Fatal("prober never failed the dead replica over")
	}

	// Re-replication: the spare must now be following the promoted
	// replica and converge to its states.
	for time.Now().Before(deadline) {
		st := spare.fol.Status()
		if st.Primary == fa.ts.URL && st.Connected && st.LastSeq >= fa.state.WALSeq() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := spare.fol.Status(); st.Primary != fa.ts.URL {
		t.Fatalf("spare follows %q, want the promoted replica %q", st.Primary, fa.ts.URL)
	}
	if got, want := len(spare.state.Keys()), len(fa.state.Keys()); got != want {
		t.Fatalf("spare replicated %d states, want %d", got, want)
	}

	router.StopProber()
	b.stop(t)
	fa.stop(t)
	spare.stop(t)
	shutdownKilled(t, a)
}

// TestHealthzBreakdown covers satellite observability: /healthz aggregates
// per-node probe results and flips to 503 with a JSON breakdown when a
// ring replica has no healthy owner for its arcs.
func TestHealthzBreakdown(t *testing.T) {
	m := testModel(t, 16)
	a, b := startReplica(t, m), startReplica(t, m)
	router, err := New(Options{
		Replicas:   []string{a.ts.URL, b.ts.URL},
		ProbeFails: 1, // prober disabled: /healthz probes synchronously
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(router)
	defer rts.Close()

	type healthDoc struct {
		Status   string          `json:"status"`
		Replicas []ReplicaHealth `json:"replicas"`
	}
	get := func() (int, healthDoc) {
		t.Helper()
		resp, err := http.Get(rts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc healthDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, doc
	}

	code, doc := get()
	if code != http.StatusOK || doc.Status != "ok" || len(doc.Replicas) != 2 {
		t.Fatalf("healthy cluster: HTTP %d, %+v", code, doc)
	}

	kill(b)
	code, doc = get()
	if code != http.StatusServiceUnavailable || doc.Status != "degraded" {
		t.Fatalf("dead replica: HTTP %d status %q, want 503 degraded", code, doc.Status)
	}
	var foundDead bool
	for _, n := range doc.Replicas {
		if n.URL == b.ts.URL && !n.Healthy && n.LastErr != "" {
			foundDead = true
		}
	}
	if !foundDead {
		t.Fatalf("breakdown does not name the dead replica: %+v", doc.Replicas)
	}

	a.stop(t)
	shutdownKilled(t, b)
}
