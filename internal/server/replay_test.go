package server_test

// The replay parity tests drive the server through the load client,
// which imports this package, so they live in the external test package.

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/nn"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/statestore"
	"repro/internal/synth"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// testModel and startWireListener are the internal tests' helpers of the
// same names; an external test package cannot reach those.
func testModel(t *testing.T, hidden int) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.HiddenDim = hidden
	cfg.Seed = 7
	return core.New(synth.MobileTabSchema(), cfg)
}

func startWireListener(t *testing.T, srv *server.Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.ServeWire(l)
	return l.Addr().String()
}

// seqReplay replays the log through the sequential in-process path — the
// parity baseline every HTTP test compares against.
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

// assertStatesEqual compares every hidden state of want against got, byte
// for byte, and returns how many it compared.
func assertStatesEqual(t *testing.T, want, got serving.Store) int {
	t.Helper()
	wantKeys := want.Keys()
	if len(wantKeys) == 0 {
		t.Fatal("baseline stored no states")
	}
	if gk := got.Keys(); len(gk) != len(wantKeys) {
		t.Fatalf("key count differs: got %d, want %d", len(gk), len(wantKeys))
	}
	for _, k := range wantKeys {
		w, ok1 := want.Get(k)
		g, ok2 := got.Get(k)
		if !ok1 || !ok2 {
			t.Fatalf("key %s missing (want %v, got %v)", k, ok1, ok2)
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("state %s differs between paths", k)
		}
	}
	return len(wantKeys)
}

// TestHTTPReplayMatchesSequential is the parity gate: replaying an event
// log over the HTTP API through the micro-batcher stores hidden states
// byte-identical to sequential in-process replay of the same log — every
// state compared, plus the /digest endpoint agreeing with the in-process
// digest.
func TestHTTPReplayMatchesSequential(t *testing.T) {
	m := testModel(t, 24)
	log := loadgen.ReplayLog(30, 3)
	if len(log) == 0 {
		t.Fatal("empty replay log")
	}
	seq := seqReplay(m, log)

	store := serving.NewShardedKVStore(8)
	srv := server.New(server.Options{
		Model: m, Store: store, Threshold: 0.5,
		// LaneDepth exceeds len(log), so this parity run cannot shed however
		// the box is loaded; TestBackpressureSheds covers shedding.
		Lanes: 3, MaxBatch: 8, MaxWait: time.Millisecond, LaneDepth: 4096,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := loadgen.RunLoad(loadgen.LoadOptions{
		BaseURL:       ts.URL,
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
		t.Fatalf("no predictions served: %+v", rep)
	}

	n := assertStatesEqual(t, seq, store)
	t.Logf("HTTP replay parity: %d hidden states byte-identical across %d sessions", n, len(log))

	_, dg, err := loadgen.Digest(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := serving.StateDigest(seq); dg != want {
		t.Fatalf("/digest %s, want %s", dg, want)
	}

	// HTTP predictions must agree with direct in-process predictions
	// over the (now identical) state.
	svc := serving.NewPredictionService(m, seq, 0.5)
	for i := 0; i < 10; i++ {
		e := log[(i*37)%len(log)]
		want := svc.OnSessionStart(e.User, e.Ts, e.Cat)
		body, _ := json.Marshal(server.PredictIn{User: e.User, Ts: e.Ts, Cat: e.Cat})
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out server.PredictOut
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.Probability != want.Probability || out.Precompute != want.Precompute {
			t.Fatalf("predict mismatch for user %d: got %+v, want %+v", e.User, out, want)
		}
	}

	st := srv.Stats()
	if st.UpdatesRun != int64(len(log)) {
		t.Fatalf("updates run %d, want %d", st.UpdatesRun, len(log))
	}
	if st.Batches <= 0 || st.MeanBatch < 1 {
		t.Fatalf("batcher stats look wrong: %+v", st)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdownDrainsAndSnapshots covers the SIGTERM path: a
// server with parked micro-batches (long max-wait) must, on Shutdown,
// drain in-flight work, fire outstanding timers, and force a final
// statestore snapshot such that a clean reopen recovers every hidden
// state byte-identically.
func TestGracefulShutdownDrainsAndSnapshots(t *testing.T) {
	m := testModel(t, 16)
	log := loadgen.ReplayLog(20, 5)
	dir := t.TempDir()
	ss, err := statestore.Open(statestore.Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{
		Model: m, Store: ss, State: ss, Threshold: 0.5,
		// A long max-wait parks partial batches: Shutdown must not lose
		// them. LaneDepth exceeds len(log), so this run cannot shed however
		// the box is loaded; TestBackpressureSheds covers shedding.
		Lanes: 2, MaxBatch: 64, MaxWait: 300 * time.Millisecond, LaneDepth: 2048,
	})
	ts := httptest.NewServer(srv.Handler())

	rep, err := loadgen.RunLoad(loadgen.LoadOptions{
		BaseURL:       ts.URL,
		Concurrency:   2,
		EventsPerPost: 4,
		Flush:         false, // leave timers outstanding and batches parked
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != 0 || rep.Errors != 0 {
		t.Fatalf("ingest must be clean: %+v", rep)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Shutdown fires all outstanding timers, so the drained server equals
	// a full sequential replay + flush.
	seq := seqReplay(m, log)
	assertStatesEqual(t, seq, ss)

	if srv.Stats().UpdatesRun != int64(len(log)) {
		t.Fatalf("shutdown lost updates: ran %d, want %d", srv.Stats().UpdatesRun, len(log))
	}
	if ss.Lifecycle().Snapshots < 1 {
		t.Fatal("graceful shutdown must force a snapshot")
	}
	if _, err := os.Stat(filepath.Join(dir, "state.snap")); err != nil {
		t.Fatalf("final snapshot missing: %v", err)
	}

	// Reopen: every pre-shutdown state must come back byte-identical.
	pre := make(map[string][]byte)
	for _, k := range ss.Keys() {
		v, ok := ss.Get(k)
		if !ok {
			t.Fatalf("key %s unreadable before close", k)
		}
		pre[k] = v
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := statestore.Open(statestore.Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Lifecycle().RecoveredKeys != len(pre) {
		t.Fatalf("recovered %d states, want %d", re.Lifecycle().RecoveredKeys, len(pre))
	}
	for k, v := range pre {
		got, ok := re.Get(k)
		if !ok {
			t.Fatalf("state %s lost across shutdown + reopen", k)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("state %s differs after reopen", k)
		}
	}
}

// TestHTTPReplayF32TierParity runs the micro-batched HTTP path with the
// f32 finaliser tier and compares against the f32 sequential in-process
// replay: the f32 accumulation contract makes every hidden state
// byte-identical across the two paths, exactly like the f64 parity gate.
// /statz must surface the active tier.
func TestHTTPReplayF32TierParity(t *testing.T) {
	m := testModel(t, 24)
	log := loadgen.ReplayLog(30, 3)

	seq := serving.NewKVStore()
	p := serving.NewStreamProcessor(m, seq)
	if err := p.SetPrecision(nn.TierF32); err != nil {
		t.Fatal(err)
	}
	for _, e := range log {
		p.OnSessionStart(e.SID, e.User, e.Ts, e.Cat)
		if e.Access {
			p.OnAccess(e.SID, e.Ts+30)
		}
	}
	p.Flush()

	store := serving.NewShardedKVStore(8)
	srv := server.New(server.Options{
		Model: m, Store: store, Threshold: 0.5,
		// LaneDepth exceeds len(log), so this parity run cannot shed however
		// the box is loaded; TestBackpressureSheds covers shedding.
		Lanes: 3, MaxBatch: 8, MaxWait: time.Millisecond, LaneDepth: 4096,
		Precision: nn.TierF32,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := loadgen.RunLoad(loadgen.LoadOptions{
		BaseURL:       ts.URL,
		Concurrency:   4,
		EventsPerPost: 5,
		Flush:         true,
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != 0 || rep.Errors != 0 {
		t.Fatalf("parity run must be clean: %+v", rep)
	}
	n := assertStatesEqual(t, seq, store)
	t.Logf("f32 HTTP replay parity: %d hidden states byte-identical", n)

	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var stz server.Statz
	if err := json.NewDecoder(resp.Body).Decode(&stz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stz.Precision != "f32" {
		t.Fatalf("/statz precision = %q, want f32", stz.Precision)
	}
	if stz.Kernel != tensor.KernelF64() {
		t.Fatalf("/statz kernel = %q, want %q", stz.Kernel, tensor.KernelF64())
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWireReplayMatchesSequential is the wire-path parity gate, the
// binary twin of TestHTTPReplayMatchesSequential: replaying the same log
// over the wire protocol (events and predicts both) stores hidden states
// byte-identical to sequential in-process replay, and the /digest
// endpoint agrees. The control plane (flush, digest) stays on HTTP, as in
// production.
func TestWireReplayMatchesSequential(t *testing.T) {
	m := testModel(t, 24)
	log := loadgen.ReplayLog(30, 3)
	seq := seqReplay(m, log)

	store := serving.NewShardedKVStore(8)
	srv := server.New(server.Options{
		Model: m, Store: store, Threshold: 0.5,
		// LaneDepth exceeds len(log), so this parity run cannot shed however
		// the box is loaded; TestBackpressureSheds covers shedding.
		Lanes: 3, MaxBatch: 8, MaxWait: time.Millisecond, LaneDepth: 4096,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wireAddr := startWireListener(t, srv)

	rep, err := loadgen.RunLoad(loadgen.LoadOptions{
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

	_, dg, err := loadgen.Digest(ts.URL)
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
