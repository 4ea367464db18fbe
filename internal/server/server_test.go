package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serving"
	"repro/internal/synth"
)

func testModel(t *testing.T, hidden int) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.HiddenDim = hidden
	cfg.Seed = 7
	return core.New(synth.MobileTabSchema(), cfg)
}

// slowStore delays every Put, backing the finalisation pipeline up so
// admission control has something to shed.
type slowStore struct {
	serving.Store
	delay time.Duration
}

func (s *slowStore) Put(k string, v []byte) {
	time.Sleep(s.delay)
	s.Store.Put(k, v)
}

// TestBackpressureSheds pins the bounded-queue contract: when the
// finalisation backlog reaches Lanes*LaneDepth, POST /event returns 429
// and the shed counter advances — the server degrades by shedding, not by
// growing its queues without bound.
func TestBackpressureSheds(t *testing.T) {
	m := testModel(t, 16)
	slow := &slowStore{Store: serving.NewKVStore(), delay: 20 * time.Millisecond}
	srv := New(Options{
		Model: m, Store: slow, Threshold: 0.5,
		Lanes: 1, LaneDepth: 2, MaxBatch: 1, MaxWait: -1,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	window := m.Schema.SessionLength + core.DefaultEpsilon
	base := synth.DefaultStart
	var accepted, shed int
	for i := 0; i < 60; i++ {
		// Each start's timestamp fires the previous session's timer, so
		// the backlog grows as fast as the slow store falls behind.
		ev := Event{
			Type: "start", Session: fmt.Sprintf("s%d", i),
			User: i, Ts: base + int64(i)*(window+10), Cat: []int{0, 0},
		}
		body, _ := json.Marshal(ev)
		resp, err := http.Post(ts.URL+"/event", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if shed == 0 {
		t.Fatal("overloaded server never shed — queues are not bounded")
	}
	if accepted == 0 {
		t.Fatal("server shed everything — admission control too aggressive")
	}
	st := srv.Stats()
	if st.EventsShed != int64(shed) {
		t.Fatalf("shed counter %d, want %d", st.EventsShed, shed)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Everything admitted must eventually finalise (no lost updates).
	if got := srv.Stats().UpdatesRun; got != int64(accepted) {
		t.Fatalf("updates run %d, want %d (admitted)", got, accepted)
	}
}

// TestMicroBatchFlushPolicies pins the two flush triggers: a full batch
// flushes immediately (one GEMM group), and a partial batch flushes after
// max-wait without any further traffic.
func TestMicroBatchFlushPolicies(t *testing.T) {
	m := testModel(t, 16)
	store := serving.NewKVStore()
	srv := New(Options{
		Model: m, Store: store, Threshold: 0.5,
		Lanes: 1, MaxBatch: 4, MaxWait: 40 * time.Millisecond, LaneDepth: 64,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	window := m.Schema.SessionLength + core.DefaultEpsilon
	base := synth.DefaultStart
	post := func(evs []Event) {
		body, _ := json.Marshal(evs)
		resp, err := http.Post(ts.URL+"/event", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}

	// Four sessions, then a clock advance that makes all four due in one
	// dispatch burst: they must ride one max-batch flush.
	evs := make([]Event, 0, 5)
	for u := 0; u < 4; u++ {
		evs = append(evs, Event{Type: "start", Session: fmt.Sprintf("a%d", u), User: u, Ts: base + int64(u), Cat: []int{0, 0}})
	}
	post(evs)
	post([]Event{{Type: "start", Session: "tick", User: 99, Ts: base + window + 100, Cat: []int{0, 0}}})
	waitFor(t, func() bool { return srv.Stats().UpdatesRun == 4 })
	if st := srv.Stats(); st.Batches != 1 {
		t.Fatalf("4 concurrent dues should flush as one batch, got %d batches", st.Batches)
	}

	// Two more dues with no further traffic: the max-wait timer must flush
	// the partial batch on its own.
	post([]Event{
		{Type: "start", Session: "b0", User: 201, Ts: base + window + 200, Cat: []int{0, 0}},
		{Type: "start", Session: "b1", User: 202, Ts: base + window + 201, Cat: []int{0, 0}},
		{Type: "start", Session: "tick2", User: 203, Ts: base + 3*window, Cat: []int{0, 0}},
	})
	waitFor(t, func() bool { return srv.Stats().UpdatesRun == 7 })
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEventValidation pins the API's 400 behaviour.
func TestEventValidation(t *testing.T) {
	m := testModel(t, 8)
	srv := New(Options{Model: m, Store: serving.NewKVStore(), Threshold: 0.5, Lanes: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"type":"nonsense","session":"x","ts":5}`,
		`{"type":"start","ts":5,"cat":[0,0]}`,                         // no session
		`{"type":"start","session":"x","cat":[0,0]}`,                  // no ts
		`{"type":"access","ts":5}`,                                    // no session
		`{"type":"start","session":"x","user":-1,"ts":5,"cat":[0,0]}`, // bad user
		`{"type":"start","session":"x","ts":5}`,                       // missing cat
		`{"type":"start","session":"x","ts":5,"cat":[9999,0]}`,        // cat out of range
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/event", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerRejectsUnsupportedF32 pins the constructor gate: a cell
// without an f32 inference tier must refuse the f32 option loudly at
// startup, not corrupt states at the first finalisation.
func TestServerRejectsUnsupportedF32(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HiddenDim = 8
	cfg.Cell = nn.CellLSTM
	m := core.New(synth.MobileTabSchema(), cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted f32 precision for an LSTM model")
		}
	}()
	New(Options{Model: m, Store: serving.NewKVStore(), Threshold: 0.5, Precision: nn.TierF32})
}
