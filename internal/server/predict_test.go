package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/serving"
	"repro/internal/synth"
	"repro/internal/wire"
)

// predictDeadline bounds every request and wait in this file: a predict
// that never answers must fail its test, not time the suite out.
const predictDeadline = 10 * time.Second

// httpPredict posts one predict and returns the status and decoded body.
func httpPredict(t *testing.T, baseURL string, in PredictIn) (int, PredictOut) {
	t.Helper()
	code, out, err := tryHTTPPredict(baseURL, in)
	if err != nil {
		t.Fatalf("POST /predict: %v", err)
	}
	return code, out
}

// tryHTTPPredict is httpPredict for goroutines other than the test's own.
func tryHTTPPredict(baseURL string, in PredictIn) (int, PredictOut, error) {
	var out PredictOut
	body, err := json.Marshal(in)
	if err != nil {
		return 0, out, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), predictDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/predict", bytes.NewReader(body))
	if err != nil {
		return 0, out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&out)
	}
	return resp.StatusCode, out, err
}

func wirePredictClient(addr string, conns int) *wire.Client {
	return wire.NewClient(addr, wire.ClientOptions{Conns: conns, DialTimeout: predictDeadline, CallTimeout: predictDeadline})
}

// warmStore finalises one session for each even user below n, so even users
// predict from a stored state and odd users cold-start.
func warmStore(m *core.Model, store serving.Store, n int) {
	proc := serving.NewStreamProcessor(m, store)
	for u := 0; u < n; u += 2 {
		sid := fmt.Sprintf("warm-%d", u)
		proc.OnSessionStart(sid, u, synth.DefaultStart+int64(u), []int{u % 4, u % 3})
		proc.OnAccess(sid, synth.DefaultStart+int64(u)+30)
	}
	proc.Flush()
}

// gatedStore parks every Get on gate after announcing it on entered, which
// holds a predict in flight for as long as a test needs it there. Tests
// defer release after their server's Close, so it runs first and a failed
// test cannot hang in Close waiting for a parked handler.
type gatedStore struct {
	serving.Store
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (g *gatedStore) release() { g.once.Do(func() { close(g.gate) }) }

func newGatedStore() *gatedStore {
	return &gatedStore{
		Store: serving.NewKVStore(),
		// Buffered past any test's predict count, so Get never blocks on an
		// announcement nobody reads.
		entered: make(chan struct{}, 16),
		gate:    make(chan struct{}),
	}
}

func (g *gatedStore) Get(key string) ([]byte, bool) {
	g.entered <- struct{}{}
	<-g.gate
	return g.Store.Get(key)
}

// awaitParked waits until n predicts are inside the gated Get.
func awaitParked(t *testing.T, g *gatedStore, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.entered:
		case <-time.After(predictDeadline):
			t.Fatalf("only %d of %d predicts reached the store", i, n)
		}
	}
}

// TestPredictLoneRequestAnswers is the regression guard for the inline
// predict path: with an hour-long MaxWait, one predict with nothing behind
// it must still answer at once on both transports. The micro-batcher this
// replaced held a lone predict for the full MaxWait.
func TestPredictLoneRequestAnswers(t *testing.T) {
	srv := New(Options{
		Model: testModel(t, 16), Store: serving.NewKVStore(), Threshold: 0.5,
		Lanes: 2, MaxBatch: 8, MaxWait: time.Hour, LaneDepth: 16,
	})
	// Closed on success only: Close waits for running handlers, and the
	// failure this test exists to catch is a handler that never finishes.
	ts := httptest.NewServer(srv.Handler())
	wcl := wirePredictClient(startWireListener(t, srv), 1)
	defer wcl.Close()

	if code, out := httpPredict(t, ts.URL, PredictIn{User: 1, Ts: synth.DefaultStart, Cat: []int{1, 2}}); code != http.StatusOK {
		t.Fatalf("lone HTTP predict: status %d (%+v)", code, out)
	}
	pr, err := wcl.SendPredict(0, wire.AppendPredict(nil, 1, synth.DefaultStart, []int{1, 2}), 0)
	if err != nil || pr.Status != wire.StatusOK {
		t.Fatalf("lone wire predict: %+v, err %v", pr, err)
	}
	if got := srv.Stats().Predicts; got != 2 {
		t.Fatalf("predicts served %d, want 2", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), predictDeadline)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()
}

// TestPredictMatchesService: both transports return the probability bits
// and the decision PredictionService.OnSessionStart computes over the same
// store, for warm users (even) and cold starts (odd).
func TestPredictMatchesService(t *testing.T) {
	m := testModel(t, 16)
	store := serving.NewShardedKVStore(4)
	warmStore(m, store, 12)
	srv := New(Options{Model: m, Store: store, Threshold: 0.5, Lanes: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wcl := wirePredictClient(startWireListener(t, srv), 1)
	defer wcl.Close()

	svc := serving.NewPredictionService(m, store, 0.5)
	for u := 0; u < 12; u++ {
		ts0, cat := synth.DefaultStart+7200+int64(u), []int{(u + 1) % 4, u % 3}
		want := svc.OnSessionStart(u, ts0, cat)
		code, out := httpPredict(t, ts.URL, PredictIn{User: u, Ts: ts0, Cat: cat})
		if code != http.StatusOK || math.Float64bits(out.Probability) != math.Float64bits(want.Probability) || out.Precompute != want.Precompute {
			t.Fatalf("user %d over HTTP: status %d %+v, want %+v", u, code, out, want)
		}
		pr, err := wcl.SendPredict(0, wire.AppendPredict(nil, u, ts0, cat), 0)
		if err != nil || pr.Status != wire.StatusOK || math.Float64bits(pr.Probability) != math.Float64bits(want.Probability) || pr.Precompute != want.Precompute {
			t.Fatalf("user %d over wire: %+v (err %v), want %+v", u, pr, err, want)
		}
	}
	if st := srv.Stats(); st.Predicts != 24 || st.ColdStarts != 12 {
		t.Fatalf("predicts %d (want 24), cold starts %d (want 12)", st.Predicts, st.ColdStarts)
	}
	ctx, cancel := context.WithTimeout(context.Background(), predictDeadline)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestPredictAdmission: predictDepth bounds the predicts running at once.
// With two parked inside the store, a third is shed — 429 or StatusShed —
// and counted, and the parked two still succeed once the store lets go.
func TestPredictAdmission(t *testing.T) {
	for _, transport := range []string{"http", "wire"} {
		t.Run(transport, func(t *testing.T) {
			store := newGatedStore()
			srv := New(Options{Model: testModel(t, 16), Store: store, Threshold: 0.5, Lanes: 1})
			srv.predictCap = 2
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer store.release()
			// One connection per request: a wire connection serves its frames
			// in order, so a third predict on a busy one would wait, not shed.
			wcl := wirePredictClient(startWireListener(t, srv), 3)
			defer wcl.Close()

			// predict reports "ok", "shed" or a description of anything else.
			predict := func(lane int) string {
				if transport == "http" {
					code, _, err := tryHTTPPredict(ts.URL, PredictIn{User: lane, Ts: synth.DefaultStart, Cat: []int{0, 0}})
					switch {
					case err != nil:
						return err.Error()
					case code == http.StatusOK:
						return "ok"
					case code == http.StatusTooManyRequests:
						return "shed"
					}
					return fmt.Sprintf("status %d", code)
				}
				pr, err := wcl.SendPredict(uint64(lane), wire.AppendPredict(nil, lane, synth.DefaultStart, []int{0, 0}), 0)
				switch {
				case err != nil:
					return err.Error()
				case pr.Status == wire.StatusOK:
					return "ok"
				case pr.Status == wire.StatusShed:
					return "shed"
				}
				return fmt.Sprintf("status %s: %s", wire.StatusText(pr.Status), pr.Msg)
			}

			parked := make(chan string, 2)
			for lane := 0; lane < 2; lane++ {
				go func(lane int) { parked <- predict(lane) }(lane)
			}
			awaitParked(t, store, 2)
			if got := predict(2); got != "shed" {
				t.Fatalf("third predict with two in flight: %s, want shed", got)
			}
			if got := srv.Stats().PredictsShed; got != 1 {
				t.Fatalf("PredictsShed %d, want 1", got)
			}
			store.release()
			for i := 0; i < 2; i++ {
				if got := <-parked; got != "ok" {
					t.Fatalf("parked predict after release: %s, want ok", got)
				}
			}
			// The slots came back: a predict after the burst is admitted.
			if got := predict(2); got != "ok" {
				t.Fatalf("predict after release: %s, want ok", got)
			}
			if st := srv.Stats(); st.Predicts != 3 || st.PredictsShed != 1 {
				t.Fatalf("predicts %d (want 3), shed %d (want 1)", st.Predicts, st.PredictsShed)
			}
			ctx, cancel := context.WithTimeout(context.Background(), predictDeadline)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		})
	}
}

// TestPredictShutdownDrains: Shutdown waits for a predict that is already
// running — the HTTP one is answered, the wire one's connection is cut as
// every wire connection is — refuses new ones with 503 / StatusDraining
// from the moment it latches, and returns once the running ones finish.
func TestPredictShutdownDrains(t *testing.T) {
	store := newGatedStore()
	srv := New(Options{Model: testModel(t, 16), Store: store, Threshold: 0.5, Lanes: 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer store.release()
	baseURL := "http://" + l.Addr().String()
	wcl := wirePredictClient(startWireListener(t, srv), 1)
	defer wcl.Close()

	httpDone := make(chan string, 1)
	go func() {
		code, _, err := tryHTTPPredict(baseURL, PredictIn{User: 1, Ts: synth.DefaultStart, Cat: []int{0, 0}})
		httpDone <- fmt.Sprintf("status %d, err %v", code, err)
	}()
	wireDone := make(chan struct{})
	go func() {
		// Reply or transport error, either is fine; hanging is not.
		_, _ = wcl.SendPredict(0, wire.AppendPredict(nil, 2, synth.DefaultStart, []int{0, 0}), 0)
		close(wireDone)
	}()
	awaitParked(t, store, 2)

	ctx, cancel := context.WithTimeout(context.Background(), predictDeadline)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(ctx) }()
	for deadline := time.Now().Add(predictDeadline); !srv.shutdown.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never latched")
		}
	}

	// Latched, two predicts still inside the store: new ones are refused.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict",
		bytes.NewReader([]byte(`{"user":3,"ts":1564642800,"cat":[0,0]}`))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("HTTP predict while draining: status %d, want 503", rec.Code)
	}
	var cat []int
	pr, err := srv.predictWire(wire.AppendPredict(nil, 3, synth.DefaultStart, []int{0, 0}), &cat)
	if err != nil || pr.Status != wire.StatusDraining {
		t.Fatalf("wire predict while draining: %+v (err %v), want StatusDraining", pr, err)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with predicts still in flight", err)
	default:
	}

	store.release()
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(predictDeadline):
		t.Fatal("Shutdown did not finish after the in-flight predicts were released")
	}
	if got := <-httpDone; got != "status 200, err <nil>" {
		t.Fatalf("in-flight HTTP predict: %s, want 200", got)
	}
	select {
	case <-wireDone:
	case <-time.After(predictDeadline):
		t.Fatal("in-flight wire predict never returned")
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if st := srv.Stats(); st.Predicts != 2 || st.PredictsShed != 0 {
		t.Fatalf("predicts %d (want 2), shed %d (want 0)", st.Predicts, st.PredictsShed)
	}
}

// TestPredictRejectsBadRequests covers the statuses that never reach the
// model: wrong method, malformed or out-of-schema bodies, and an injected
// server.predict fault, on both transports.
func TestPredictRejectsBadRequests(t *testing.T) {
	srv := New(Options{Model: testModel(t, 16), Store: serving.NewKVStore(), Threshold: 0.5, Lanes: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wcl := wirePredictClient(startWireListener(t, srv), 1)
	defer wcl.Close()

	resp, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: status %d, want 405", resp.StatusCode)
	}

	for _, tc := range []struct {
		name string
		in   PredictIn
	}{
		{"cat too short", PredictIn{User: 1, Ts: synth.DefaultStart, Cat: []int{0}}},
		{"cat out of range", PredictIn{User: 1, Ts: synth.DefaultStart, Cat: []int{0, 99}}},
		{"cat negative", PredictIn{User: 1, Ts: synth.DefaultStart, Cat: []int{-1, 0}}},
		{"no cat", PredictIn{User: 1, Ts: synth.DefaultStart}},
		{"negative user", PredictIn{User: -1, Ts: synth.DefaultStart, Cat: []int{0, 0}}},
		{"zero ts", PredictIn{User: 1, Cat: []int{0, 0}}},
	} {
		if code, _ := httpPredict(t, ts.URL, tc.in); code != http.StatusBadRequest {
			t.Errorf("HTTP %s: status %d, want 400", tc.name, code)
		}
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"cat too short", wire.AppendPredict(nil, 1, synth.DefaultStart, []int{0})},
		{"cat out of range", wire.AppendPredict(nil, 1, synth.DefaultStart, []int{0, 99})},
		{"zero ts", wire.AppendPredict(nil, 1, 0, []int{0, 0})},
	} {
		pr, err := wcl.SendPredict(0, tc.payload, 0)
		if err != nil || pr.Status != wire.StatusBadRequest {
			t.Errorf("wire %s: %+v (err %v), want StatusBadRequest", tc.name, pr, err)
		}
	}

	if err := faults.Arm(&faults.Plan{Seed: 1, Rules: []faults.Rule{{Point: "server.predict", Action: faults.ActError}}}); err != nil {
		t.Fatal(err)
	}
	code, _ := httpPredict(t, ts.URL, PredictIn{User: 1, Ts: synth.DefaultStart, Cat: []int{0, 0}})
	pr, err := wcl.SendPredict(0, wire.AppendPredict(nil, 1, synth.DefaultStart, []int{0, 0}), 0)
	faults.Disarm()
	if code != http.StatusInternalServerError {
		t.Errorf("HTTP predict under a server.predict fault: status %d, want 500", code)
	}
	if err != nil || pr.Status != wire.StatusError {
		t.Errorf("wire predict under a server.predict fault: %+v (err %v), want StatusError", pr, err)
	}

	if st := srv.Stats(); st.Predicts != 0 || st.PredictsShed != 0 {
		t.Fatalf("rejected requests were counted: predicts %d, shed %d", st.Predicts, st.PredictsShed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), predictDeadline)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
