package cluster

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/statestore"
	"repro/internal/synth"
)

func testModel(t *testing.T, hidden int) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.HiddenDim = hidden
	cfg.Seed = 7
	return core.New(synth.MobileTabSchema(), cfg)
}

// seqReplay replays the log through the sequential in-process path — the
// parity baseline (identical to the server package's helper).
func seqReplay(m *core.Model, log []loadgen.ReplayEvent) *serving.KVStore {
	st := serving.NewKVStore()
	p := serving.NewStreamProcessor(m, st)
	for _, e := range log {
		p.OnSessionStart(e.SID, e.User, e.Ts, e.Cat)
		if e.Access {
			p.OnAccess(e.SID, e.Ts+30)
		}
	}
	p.Flush()
	return st
}

// replica is one in-process cluster member: a server.Server over its own
// statestore WAL/snapshot directory, mounted on a loopback test server.
type replica struct {
	srv   *server.Server
	state *statestore.Store
	ts    *httptest.Server
}

func startReplica(t *testing.T, m *core.Model) *replica {
	t.Helper()
	ss, err := statestore.Open(statestore.Options{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{
		Model: m, Store: ss, State: ss, Threshold: 0.5,
		// LaneDepth exceeds any parity log, so a run asserting zero shed
		// cannot shed however the box is loaded.
		Lanes: 2, MaxBatch: 8, MaxWait: time.Millisecond, LaneDepth: 4096,
	})
	return &replica{srv: srv, state: ss, ts: httptest.NewServer(srv.Handler())}
}

func (r *replica) stop(t *testing.T) {
	t.Helper()
	r.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.srv.Shutdown(ctx); err != nil {
		t.Fatalf("replica shutdown: %v", err)
	}
	if err := r.state.Close(); err != nil {
		t.Fatalf("replica statestore: %v", err)
	}
}

// unionStates merges the replicas' resident states, failing on overlap —
// after a correct handoff every key lives on exactly one replica.
func unionStates(t *testing.T, replicas ...*replica) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, r := range replicas {
		for _, k := range r.state.Keys() {
			if _, dup := out[k]; dup {
				t.Fatalf("key %s resident on two replicas — handoff failed to drop it", k)
			}
			v, ok := r.state.Get(k)
			if !ok {
				t.Fatalf("key %s unreadable", k)
			}
			out[k] = v
		}
	}
	return out
}

// assertClusterMatchesSequential byte-compares the union of the replicas'
// states against the sequential baseline.
func assertClusterMatchesSequential(t *testing.T, seq *serving.KVStore, got map[string][]byte) {
	t.Helper()
	wantKeys := seq.Keys()
	if len(wantKeys) == 0 {
		t.Fatal("baseline stored no states")
	}
	if len(got) != len(wantKeys) {
		t.Fatalf("cluster holds %d states, sequential %d", len(got), len(wantKeys))
	}
	for _, k := range wantKeys {
		w, _ := seq.Get(k)
		g, ok := got[k]
		if !ok {
			t.Fatalf("state %s missing from the cluster", k)
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("state %s differs between cluster and sequential replay", k)
		}
	}
}

// distinctUsers counts the users in a log (expected store misses: exactly
// one cold first session per user — any more means a state was lost).
func distinctUsers(log []loadgen.ReplayEvent) int {
	seen := map[int]bool{}
	for _, e := range log {
		seen[e.User] = true
	}
	return len(seen)
}

// totalMisses sums store misses across replicas.
func totalMisses(replicas ...*replica) int64 {
	var n int64
	for _, r := range replicas {
		n += r.state.Stats().Misses
	}
	return n
}

// runHalf replays half a log through the router, requiring a clean run.
func runHalf(t *testing.T, base string, half []loadgen.ReplayEvent, flush bool) {
	t.Helper()
	rep, err := loadgen.RunLoad(loadgen.LoadOptions{
		BaseURL:       base,
		Concurrency:   4,
		EventsPerPost: 5,
		Flush:         flush,
	}, half)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != 0 || rep.Errors != 0 {
		t.Fatalf("parity replay must be clean: %+v", rep)
	}
}

// TestClusterParityWithMidReplayReshard is the tentpole gate: the same
// event log replayed (a) sequentially in one process and (b) over HTTP
// through a 3-replica cluster that reshards to a 4th replica mid-replay
// must store byte-identical hidden states — every byte compared, the
// order-independent aggregate digest agreeing with the single-process
// digest, and zero unexpected cold starts (exactly one store miss per
// distinct user, cluster-wide, reshard included).
func TestClusterParityWithMidReplayReshard(t *testing.T) {
	m := testModel(t, 24)
	log := loadgen.ReplayLog(30, 3)
	if len(log) < 20 {
		t.Fatalf("replay log too small: %d", len(log))
	}
	seq := seqReplay(m, log)

	reps := []*replica{startReplica(t, m), startReplica(t, m), startReplica(t, m)}
	urls := []string{reps[0].ts.URL, reps[1].ts.URL, reps[2].ts.URL}
	router, err := New(Options{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(router)
	defer rts.Close()

	half := len(log) / 2
	runHalf(t, rts.URL, log[:half], false)

	// Mid-replay reshard: grow the cluster by a fourth replica. Ranges of
	// every original replica rehome onto it through drain-and-handoff.
	fourth := startReplica(t, m)
	reps = append(reps, fourth)
	moved, err := router.Reshard(append(urls, fourth.ts.URL))
	if err != nil {
		t.Fatalf("reshard: %v", err)
	}
	if moved == 0 {
		t.Fatal("reshard moved no states — the handoff path was not exercised")
	}
	t.Logf("reshard moved %d states onto the new replica", moved)

	runHalf(t, rts.URL, log[half:], true)

	// Aggregate digest must equal the single-process sequential digest.
	keys, dg, err := loadgen.Digest(rts.URL)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, wantKeys := serving.StateDigest(seq)
	if dg != wantDigest || keys != wantKeys {
		t.Fatalf("cluster digest %s (%d keys), want %s (%d keys)", dg, keys, wantDigest, wantKeys)
	}

	// Every stored state, byte for byte.
	assertClusterMatchesSequential(t, seq, unionStates(t, reps...))

	// Zero unexpected cold starts: the only misses are each user's first
	// session (no predict traffic in this run, so finalisation reads are
	// the only store reads that can miss).
	if want, got := int64(distinctUsers(log)), totalMisses(reps...); got != want {
		t.Fatalf("store misses %d, want %d — a reshard caused unexpected cold starts", got, want)
	}

	for _, r := range reps {
		r.stop(t)
	}
}
