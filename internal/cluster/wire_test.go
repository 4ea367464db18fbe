package cluster

import (
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/serving"
	"repro/internal/wire"
)

// attachWire adds a wire listener to an already-running replica and
// returns its address. srv.Shutdown closes it.
func attachWire(t *testing.T, r *replica) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go r.srv.ServeWire(l)
	return l.Addr().String()
}

// startWireRouter attaches a wire listener to a router and returns its
// address; cleanup closes the router's wire plane.
func startWireRouter(t *testing.T, router *Router) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go router.ServeWire(l)
	t.Cleanup(router.CloseWire)
	return l.Addr().String()
}

// deadWireAddr returns an address nothing listens on.
func deadWireAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestWireClusterParity is the wire tentpole gate in-process: the same
// log replayed over the binary protocol end to end — loadgen → router
// splice → per-owner wire pools → replicas — stores hidden states
// byte-identical to sequential single-process replay, with the aggregate
// digest agreeing and zero sheds/errors. Predicts ride the wire too.
func TestWireClusterParity(t *testing.T) {
	m := testModel(t, 24)
	log := loadgen.ReplayLog(30, 3)
	seq := seqReplay(m, log)

	reps := make([]*replica, 3)
	urls := make([]string, 3)
	wireAddrs := map[string]string{}
	for i := range reps {
		reps[i] = startReplica(t, m)
		urls[i] = reps[i].ts.URL
		wireAddrs[urls[i]] = attachWire(t, reps[i])
	}
	router := newTestRouter(t, Options{Replicas: urls, WireAddrs: wireAddrs})
	rts := httptest.NewServer(router)
	defer rts.Close()
	routerWire := startWireRouter(t, router)

	rep, err := loadgen.RunLoad(loadgen.LoadOptions{
		BaseURL:       rts.URL,
		WireAddr:      routerWire,
		Concurrency:   4,
		EventsPerPost: 5,
		PredictEvery:  3,
		Flush:         true,
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != 0 || rep.PredictsShed != 0 || rep.Errors != 0 {
		t.Fatalf("parity replay must be clean: %+v", rep)
	}
	if rep.Predicts == 0 {
		t.Fatalf("no predictions rode the wire: %+v", rep)
	}

	keys, dg, err := loadgen.Digest(rts.URL)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, wantKeys := serving.StateDigest(seq)
	if dg != wantDigest || keys != wantKeys {
		t.Fatalf("cluster digest %s (%d keys), want %s (%d keys)", dg, keys, wantDigest, wantKeys)
	}
	assertClusterMatchesSequential(t, seq, unionStates(t, reps...))

	for _, r := range reps {
		r.stop(t)
	}
}

// TestWireClusterHTTPFallbackParity: one replica has no wire address, so
// the router re-marshals its sub-batches onto the hardened HTTP path.
// Parity must hold across the mixed transports.
func TestWireClusterHTTPFallbackParity(t *testing.T) {
	m := testModel(t, 16)
	log := loadgen.ReplayLog(24, 4)
	seq := seqReplay(m, log)

	reps := make([]*replica, 3)
	urls := make([]string, 3)
	wireAddrs := map[string]string{}
	for i := range reps {
		reps[i] = startReplica(t, m)
		urls[i] = reps[i].ts.URL
		if i != 2 { // replica 2 is wire-less: HTTP fallback
			wireAddrs[urls[i]] = attachWire(t, reps[i])
		}
	}
	router := newTestRouter(t, Options{Replicas: urls, WireAddrs: wireAddrs})
	rts := httptest.NewServer(router)
	defer rts.Close()
	routerWire := startWireRouter(t, router)

	rep, err := loadgen.RunLoad(loadgen.LoadOptions{
		BaseURL:       rts.URL,
		WireAddr:      routerWire,
		Concurrency:   3,
		EventsPerPost: 4,
		PredictEvery:  4,
		Flush:         true,
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != 0 || rep.Errors != 0 {
		t.Fatalf("fallback replay must be clean: %+v", rep)
	}

	keys, dg, err := loadgen.Digest(rts.URL)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, wantKeys := serving.StateDigest(seq)
	if dg != wantDigest || keys != wantKeys {
		t.Fatalf("mixed-transport digest %s (%d keys), want %s (%d keys)", dg, keys, wantDigest, wantKeys)
	}
	assertClusterMatchesSequential(t, seq, unionStates(t, reps...))

	for _, r := range reps {
		r.stop(t)
	}
}

// TestWireDegradedPredict pins degradation over the wire: the owner's
// wire address refuses connections, so the router falls back to another
// replica and marks the reply degraded — not an error.
func TestWireDegradedPredict(t *testing.T) {
	m := testModel(t, 16)
	a, b := startReplica(t, m), startReplica(t, m)
	defer a.stop(t)
	defer b.stop(t)
	router := newTestRouter(t, Options{
		Replicas: []string{a.ts.URL, b.ts.URL},
		WireAddrs: map[string]string{
			a.ts.URL: deadWireAddr(t), // owner's wire plane is down
			b.ts.URL: attachWire(t, b),
		},
		DataTimeout:    2 * time.Second,
		PredictRetries: -1,
	})
	routerWire := startWireRouter(t, router)

	user := -1
	for u := 0; u < 64; u++ {
		if router.Ring().OwnerOfUser(u) == a.ts.URL {
			user = u
			break
		}
	}
	if user < 0 {
		t.Fatal("no user hashed to replica A")
	}

	wcl := wire.NewClient(routerWire, wire.ClientOptions{DialTimeout: 2 * time.Second, CallTimeout: 5 * time.Second})
	defer wcl.Close()
	pr, err := wcl.SendPredict(0, wire.AppendPredict(nil, user, 1000, []int{0, 0}), 0)
	if err != nil {
		t.Fatalf("predict with dead wire owner: %v", err)
	}
	if pr.Status != wire.StatusOK || !pr.Degraded {
		t.Fatalf("predict with dead wire owner: %+v, want OK+degraded", pr)
	}
	if got := router.DegradedPredicts(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}

	// A user owned by the healthy replica answers normally.
	for u := 0; u < 64; u++ {
		if router.Ring().OwnerOfUser(u) == b.ts.URL {
			pr, err := wcl.SendPredict(0, wire.AppendPredict(nil, u, 1000, []int{0, 0}), 0)
			if err != nil {
				t.Fatal(err)
			}
			if pr.Status != wire.StatusOK || pr.Degraded {
				t.Fatalf("healthy-owner predict: %+v", pr)
			}
			break
		}
	}
}
