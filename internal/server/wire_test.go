package server

import (
	"bytes"
	"context"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serving"
	"repro/internal/wire"
)

// startWireListener attaches a wire listener to srv and returns its
// address. The listener is closed by srv.Shutdown.
func startWireListener(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.ServeWire(l)
	return l.Addr().String()
}

// TestWireReplayMatchesSequential is the wire-path parity gate, the
// binary twin of TestHTTPReplayMatchesSequential: replaying the same log
// over the wire protocol (events and predicts both) stores hidden states
// byte-identical to sequential in-process replay, and the /digest
// endpoint agrees. The control plane (flush, digest) stays on HTTP, as in
// production.
func TestWireReplayMatchesSequential(t *testing.T) {
	m := testModel(t, 24)
	log := ReplayLog(30, 3)
	seq := seqReplay(m, log)

	store := serving.NewShardedKVStore(8)
	srv := New(Options{
		Model: m, Store: store, Threshold: 0.5,
		// LaneDepth exceeds len(log), so this parity run cannot shed however
		// the box is loaded; TestBackpressureSheds covers shedding.
		Lanes: 3, MaxBatch: 8, MaxWait: time.Millisecond, LaneDepth: 4096,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wireAddr := startWireListener(t, srv)

	rep, err := RunLoad(LoadOptions{
		BaseURL:       ts.URL,
		WireAddr:      wireAddr,
		Concurrency:   4,
		EventsPerPost: 5,
		PredictEvery:  3,
		Flush:         true,
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != 0 || rep.PredictsShed != 0 || rep.Errors != 0 {
		t.Fatalf("parity run must be clean: %+v", rep)
	}
	if rep.Predicts == 0 || rep.PredictLatency.Count == 0 {
		t.Fatalf("no predictions served over wire: %+v", rep)
	}
	if rep.EventsPerPostMean <= 0 {
		t.Fatalf("events-per-post not recorded: %+v", rep)
	}

	n := assertStatesEqual(t, seq, store)
	t.Logf("wire replay parity: %d hidden states byte-identical across %d sessions (%.1f events/post)",
		n, len(log), rep.EventsPerPostMean)

	_, dg, err := Digest(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := serving.StateDigest(seq); dg != want {
		t.Fatalf("/digest %s, want %s", dg, want)
	}

	// Wire predictions must agree with direct in-process predictions over
	// the (now identical) state — probability bits and precompute flag.
	wcl := wire.NewClient(wireAddr, wire.ClientOptions{})
	defer wcl.Close()
	svc := serving.NewPredictionService(m, seq, 0.5)
	for i := 0; i < 10; i++ {
		e := log[(i*37)%len(log)]
		want := svc.OnSessionStart(e.User, e.Ts, e.Cat)
		pr, err := wcl.SendPredict(0, wire.AppendPredict(nil, e.User, e.Ts, e.Cat), 0)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Status != wire.StatusOK || pr.Probability != want.Probability || pr.Precompute != want.Precompute {
			t.Fatalf("wire predict mismatch for user %d: got %+v, want %+v", e.User, pr, want)
		}
	}

	st := srv.Stats()
	if st.UpdatesRun != int64(len(log)) {
		t.Fatalf("updates run %d, want %d", st.UpdatesRun, len(log))
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWireValidationAndDraining covers the wire error statuses: malformed
// event batches get a BadRequest ack without mutating state, and a
// shut-down server answers Draining instead of hanging.
func TestWireValidationAndDraining(t *testing.T) {
	m := testModel(t, 16)
	store := serving.NewKVStore()
	srv := New(Options{
		Model: m, Store: store, Threshold: 0.5,
		Lanes: 2, MaxBatch: 4, MaxWait: time.Millisecond, LaneDepth: 16,
	})
	wireAddr := startWireListener(t, srv)

	wcl := wire.NewClient(wireAddr, wire.ClientOptions{})
	defer wcl.Close()

	// Invalid event (ts <= 0) inside a batch: BadRequest, nothing applied.
	bad := wire.AppendStart(nil, 1, 0, "s-bad", nil)
	ack, err := wcl.SendEvents(0, 1, bad)
	if err != nil {
		t.Fatalf("SendEvents: %v", err)
	}
	if ack.Status != wire.StatusBadRequest {
		t.Fatalf("invalid event ack: %+v", ack)
	}
	if len(store.Keys()) != 0 {
		t.Fatal("invalid batch mutated state")
	}

	// Valid batch applies cleanly.
	good := wire.AppendStart(nil, 7, 100, "s-1", []int{1, 2})
	good = wire.AppendAccess(good, 7, 130, "s-1")
	ack, err = wcl.SendEvents(0, 2, good)
	if err != nil {
		t.Fatalf("SendEvents: %v", err)
	}
	if ack.Status != wire.StatusOK || ack.Accepted != 2 {
		t.Fatalf("valid batch ack: %+v", ack)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// After shutdown the listener is closed; a fresh listener on a
	// draining server must answer Draining. Re-attach one to exercise the
	// draining ack path.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.ServeWire(l)
	wcl2 := wire.NewClient(l.Addr().String(), wire.ClientOptions{DialTimeout: 2 * time.Second, CallTimeout: 2 * time.Second})
	defer wcl2.Close()
	ack, err = wcl2.SendEvents(0, 2, bytes.Clone(good))
	if err == nil && ack.Status != wire.StatusDraining {
		t.Fatalf("post-shutdown ack: %+v (err %v)", ack, err)
	}
}
