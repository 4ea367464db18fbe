// Package server is the request-driven online serving tier of §9: an
// HTTP/JSON API over the prediction service and the stream processor,
// backed by a dynamic micro-batcher. Session-start and access events are
// ingested through a serving.StreamProcessor whose sink is a
// serving.LanePool: due sessions park in the pool's bounded per-user-hash
// lanes and are coalesced — flush on max-batch or max-wait — into the
// wave-partitioned batched GEMM finaliser, so GEMM batch sizes form from
// real traffic. A predict request is answered inline, on the goroutine that
// read it: one KV lookup plus a small MLP (§9) is cheaper than any hand-off,
// so it waits on no queue, timer or other request.
//
// Ordering and parity: a user's events must arrive in timestamp order (the
// load generator shards users across connections to guarantee it), a
// session's start and access events ride the same POST (ingested under one
// ingest-lock hold), and a user always hashes to the same finalisation
// queue. Under those rules the stored hidden states are byte-identical to
// sequential in-process replay of the same event log — the /digest endpoint
// exposes the proof.
//
// Backpressure: when the finalisation backlog reaches the queue capacity,
// POST /event returns 429 and the shed counter advances; when predictDepth
// predicts are already running, POST /predict does the same. Bounded work
// in flight sheds load instead of growing without limit.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/replication"
	"repro/internal/serving"
	"repro/internal/statestore"
	"repro/internal/tensor"
)

// Event is one stream event in the HTTP API (and the unit of the replay
// logs ppload sends). Type "start" opens a session (User, Cat and Ts are
// the §9 context variables); type "access" marks the session's activity
// accessed.
type Event struct {
	Type    string `json:"type"`
	Session string `json:"session"`
	User    int    `json:"user,omitempty"`
	Ts      int64  `json:"ts"`
	Cat     []int  `json:"cat,omitempty"`
}

// PredictIn is the POST /predict request body.
type PredictIn struct {
	User int   `json:"user"`
	Ts   int64 `json:"ts"`
	Cat  []int `json:"cat,omitempty"`
}

// PredictOut is the POST /predict response body. Degraded is set by the
// router when the owning replica was unreachable and the answer came from
// a fallback replica's (possibly stale, possibly cold-start) state — the
// paper's graceful-degradation contract: a usable prediction beats a 5xx.
type PredictOut struct {
	Probability float64 `json:"probability"`
	Precompute  bool    `json:"precompute"`
	Degraded    bool    `json:"degraded,omitempty"`
}

// Statz is the GET /statz response body.
type Statz struct {
	UptimeSec       float64                    `json:"uptime_sec"`
	Events          int64                      `json:"events"`
	EventsShed      int64                      `json:"events_shed"`
	Predicts        int64                      `json:"predicts"`
	PredictsShed    int64                      `json:"predicts_shed"`
	Precomputes     int64                      `json:"precomputes"`
	ColdStarts      int64                      `json:"cold_starts"`
	DecodeFailures  int64                      `json:"decode_failures"`
	UpdatesRun      int64                      `json:"updates_run"`
	PendingSessions int                        `json:"pending_sessions"`
	Inflight        int                        `json:"inflight"`
	Batches         int64                      `json:"batches"`
	MeanBatch       float64                    `json:"mean_batch"`
	Precision       string                     `json:"precision"`
	Kernel          string                     `json:"kernel"` // f64 GEMM kernel the CPU selected: "avx2" or "go"
	Store           serving.Stats              `json:"store"`
	Lifecycle       *statestore.LifecycleStats `json:"lifecycle,omitempty"`
}

// Options configures a Server.
type Options struct {
	Model *core.Model
	Store serving.Store
	// State, when non-nil, is the durable tier behind Store: graceful
	// shutdown forces a final snapshot on it (the caller closes it).
	State *statestore.Store
	// Threshold is the precompute decision boundary.
	Threshold float64
	// Precision selects the finalisation compute tier (nn.TierF64, the
	// bit-exact reference, or nn.TierF32, the fused float32 kernels).
	// TierF32 requires a cell with an f32 inference tier — New panics
	// otherwise; flag-level validation lives in ppserve. Predictions always
	// run f64 (the MLP-dominated path widens exactly from the stored wire).
	Precision nn.PrecisionTier
	// Follower, when non-nil, is the replication client applying a
	// primary's records into State. The server exposes its admin half
	// (/replicate/follow, /replicate/promote) and stops it on Shutdown;
	// the caller starts it.
	Follower *replication.Follower

	// Lanes is the number of finalisation shards — bounded queues, each
	// drained by one flusher goroutine (<=0 selects GOMAXPROCS). A user
	// always hashes to the same lane, which preserves per-user update
	// order.
	Lanes int
	// MaxBatch flushes a finalisation queue when this many sessions have
	// parked (<=0 selects 32). It also bounds the GEMM batch, so it is the
	// online analogue of ppserve's -infer-batch.
	MaxBatch int
	// MaxWait flushes a partial finalisation batch this long after the
	// queue went non-empty. 0 selects 2ms; negative disables waiting (greedy
	// flush — the batch-size-1 behaviour when MaxBatch is 1). Events are
	// acknowledged at ingest and predicts never queue, so the wait is on no
	// request's latency path.
	MaxWait time.Duration
	// LaneDepth bounds each finalisation queue (<=0 selects 256). Admission
	// control sheds events with 429 once Lanes*LaneDepth finalisations are
	// in flight.
	LaneDepth int
}

// predictDepth bounds the predicts running at once; one more is shed with
// 429.
const predictDepth = 1024

// Server is the online serving tier. Create with New, serve with
// ListenAndServe/Serve (or mount Handler in a test server), stop with
// Shutdown.
type Server struct {
	opts Options
	svc  *serving.PredictionService

	// mu guards the ingest half (proc and draining). The processor's sink is
	// pool.Submit, so lane sends happen under mu; the pool's workers never
	// take mu, so a blocking send cannot deadlock.
	mu       sync.Mutex
	proc     *serving.StreamProcessor
	draining bool

	// pool is the finalisation micro-batcher: Lanes bounded queues, each
	// coalescing up to MaxBatch due sessions (waiting at most MaxWait) into
	// the wave-partitioned finaliser.
	pool *serving.LanePool

	// predictsInflight counts predicts between admitPredict and
	// releasePredict — the whole of predict admission control — against
	// predictCap, which is predictDepth outside tests.
	predictsInflight atomic.Int64
	predictCap       int64

	events       atomic.Int64
	eventsShed   atomic.Int64
	predicts     atomic.Int64
	predictsShed atomic.Int64

	// source streams the statestore's tail to replication subscribers
	// (nil without a durable store).
	source *replication.Source

	// wireMu guards the binary-listener registry (ServeWire) so Shutdown
	// can close listeners and live connections; wireWG tracks per-
	// connection goroutines across the drain.
	wireMu        sync.Mutex
	wireListeners map[net.Listener]struct{}
	wireConns     map[net.Conn]struct{}
	wireWG        sync.WaitGroup

	start time.Time
	mux   *http.ServeMux
	// httpMu guards httpSrv: ListenAndServe/Serve register it while
	// Shutdown (typically a signal goroutine) reads it.
	httpMu   sync.Mutex
	httpSrv  *http.Server
	shutdown atomic.Bool
}

// New wires the serving stack and starts the lane pool. The server owns
// its queues and workers; the model, store and statestore stay
// caller-owned.
func New(opts Options) *Server {
	if opts.Lanes <= 0 {
		opts.Lanes = runtime.GOMAXPROCS(0)
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 32
	}
	if opts.MaxWait == 0 {
		opts.MaxWait = 2 * time.Millisecond
	}
	if opts.LaneDepth <= 0 {
		opts.LaneDepth = 256
	}
	pool, err := serving.NewLanePool(opts.Model, opts.Store, serving.LaneConfig{
		Lanes:    opts.Lanes,
		Depth:    opts.LaneDepth,
		MaxBatch: opts.MaxBatch,
		MaxWait:  opts.MaxWait,
		Tier:     opts.Precision,
	})
	if err != nil {
		// Programmer error: flag-level input is validated in ppserve, so an
		// unsupported tier reaching here means the caller skipped the gate.
		panic("server: " + err.Error() + " (gate on Model.SupportsF32)")
	}
	s := &Server{
		opts:  opts,
		svc:   serving.NewPredictionService(opts.Model, opts.Store, opts.Threshold),
		proc:  serving.NewStreamProcessor(opts.Model, opts.Store),
		pool:  pool,
		start: time.Now(),

		predictCap: predictDepth,

		wireListeners: map[net.Listener]struct{}{},
		wireConns:     map[net.Conn]struct{}{},
	}
	s.proc.SetSink(pool.Submit)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/event", s.handleEvent)
	s.mux.HandleFunc("/predict", s.handlePredict)
	s.mux.HandleFunc("/flush", s.handleFlush)
	s.mux.HandleFunc("/statz", s.handleStatz)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/digest", s.handleDigest)
	s.mux.HandleFunc("/export", s.handleExport)
	s.mux.HandleFunc("/import", s.handleImport)
	s.mux.HandleFunc("/drop", s.handleDrop)
	if opts.State != nil {
		s.source = replication.NewSource(opts.State)
	}
	s.mux.HandleFunc("/replicate/subscribe", s.handleReplicateSubscribe)
	s.mux.HandleFunc("/replicate/status", s.handleReplicateStatus)
	s.mux.HandleFunc("/replicate/follow", s.handleReplicateFollow)
	s.mux.HandleFunc("/replicate/promote", s.handleReplicatePromote)
	return s
}

// Handler returns the API mux (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// registerHTTP installs the http.Server unless shutdown already latched
// (a SIGTERM can land before the listener starts; serving would then be
// unstoppable). Returns false when the server must not start.
func (s *Server) registerHTTP(h *http.Server) bool {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.shutdown.Load() {
		return false
	}
	s.httpSrv = h
	return true
}

// ListenAndServe serves the API on addr until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve serves the API on l until Shutdown, and closes l on return.
func (s *Server) Serve(l net.Listener) error {
	h := &http.Server{Handler: s.mux}
	if !s.registerHTTP(h) {
		l.Close()
		return nil
	}
	err := h.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the server gracefully: stop accepting requests, let
// in-flight handlers finish (a running predict is answered; one that
// arrives after the latch gets 503), fire every outstanding session timer (a
// buffered session's update is applied rather than lost), wait for the
// micro-batcher to drain, and force a final statestore snapshot so a clean
// reopen recovers byte-identical states. The whole drain is bounded by
// ctx — on expiry Shutdown returns the context error (after a best-effort
// snapshot of whatever has landed) instead of hanging on a stuck store.
// Idempotent; the caller closes the statestore afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.shutdown.Swap(true) {
		return nil
	}
	// Replication first: stop applying remote records (a follower) and
	// drop subscriber sessions (hijacked conns the http.Server no longer
	// tracks) before the drain, so nothing mutates the store behind the
	// final snapshot.
	if s.opts.Follower != nil {
		s.opts.Follower.Stop()
	}
	if s.source != nil {
		s.source.Close()
	}
	var err error
	s.httpMu.Lock()
	h := s.httpSrv
	s.httpMu.Unlock()
	if h != nil {
		err = h.Shutdown(ctx)
	}
	// The binary listeners next: wire clients are load generators and
	// routers that finish their replay before shutdown, so conns are
	// closed rather than drained — an in-flight frame either applied
	// whole (its goroutine holds mu before the draining latch) or not at
	// all.
	s.closeWire()
	if werr := waitCtx(ctx, s.wireWG.Wait); werr != nil && err == nil {
		err = werr
	}
	// After draining latches (under mu), no handler submits again — every
	// lane send happens inside a processor call under mu, and every handler
	// that makes such a call (/event and /flush) checks draining first
	// under the same mu hold — so closing the pool is safe: its workers
	// finish whatever is parked and exit, and Close returning is the drain
	// barrier.
	s.mu.Lock()
	s.draining = true
	s.proc.Flush()
	s.mu.Unlock()
	if werr := waitCtx(ctx, s.pool.Close); werr != nil && err == nil {
		err = werr
	}
	if s.opts.State != nil {
		if serr := s.opts.State.Snapshot(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// waitCtx runs the blocking wait until it returns or the context expires,
// whichever first. On expiry the waiter goroutine stays parked until wait
// eventually returns — acceptable because a timed-out drain means worker
// goroutines are already stuck; the waiter adds nothing to what leaked.
func waitCtx(ctx context.Context, wait func()) error {
	done := make(chan struct{})
	go func() {
		wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ---- predict admission ----

// admitPredict claims one of the predictCap in-flight predict slots for
// the calling goroutine, which then runs the prediction itself and calls
// releasePredict; false means the request is shed (and counted). Admission
// is one atomic counter: there is no queue to fill, so "full" means
// predictCap predictions are running right now. Callers check the
// shutdown latch first.
func (s *Server) admitPredict() bool {
	if s.predictsInflight.Add(1) > s.predictCap {
		s.predictsInflight.Add(-1)
		s.predictsShed.Add(1)
		return false
	}
	return true
}

// releasePredict returns the slot admitPredict claimed and counts the
// prediction as served.
func (s *Server) releasePredict() {
	s.predictsInflight.Add(-1)
	s.predicts.Add(1)
}

// ---- handlers ----

const maxBodyBytes = 8 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// checkCat validates a request's context categories against the model
// schema. The feature encoders index by category value, so an unchecked
// out-of-range value would panic the goroutine that encodes it — a lane
// worker for an event, the request's own goroutine for a predict — instead
// of returning 400.
func (s *Server) checkCat(cat []int) error {
	schema := s.opts.Model.Schema
	if len(cat) != len(schema.Cat) {
		return fmt.Errorf("cat needs %d entries, got %d", len(schema.Cat), len(cat))
	}
	for i, c := range cat {
		if c < 0 || c >= schema.Cat[i].Cardinality {
			return fmt.Errorf("cat[%d]=%d outside [0,%d)", i, c, schema.Cat[i].Cardinality)
		}
	}
	return nil
}

// handleEvent ingests one event or a JSON array of events. The whole post
// is admitted or shed as a unit, and is ingested under one ingest-lock
// hold — which is what lets clients keep a session's start and access
// events atomic (ride the same post) so no later clock advance can fire
// the timer between them.
func (s *Server) handleEvent(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if err := faults.Fire("server.event", ""); err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	var evs []Event
	if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		err = json.Unmarshal(trimmed, &evs)
	} else {
		var ev Event
		err = json.Unmarshal(body, &ev)
		evs = []Event{ev}
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "decoding events: "+err.Error())
		return
	}
	for _, ev := range evs {
		switch ev.Type {
		case "start":
			if ev.Session == "" || ev.User < 0 || ev.Ts <= 0 {
				writeErr(w, http.StatusBadRequest, "start event needs session, user >= 0 and ts > 0")
				return
			}
			if err := s.checkCat(ev.Cat); err != nil {
				writeErr(w, http.StatusBadRequest, "start event: "+err.Error())
				return
			}
		case "access":
			if ev.Session == "" || ev.Ts <= 0 {
				writeErr(w, http.StatusBadRequest, "access event needs session and ts > 0")
				return
			}
		default:
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown event type %q", ev.Type))
			return
		}
	}
	if s.pool.Overloaded() {
		s.eventsShed.Add(int64(len(evs)))
		writeErr(w, http.StatusTooManyRequests, "finalisation backlog full, event shed")
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	for _, ev := range evs {
		if ev.Type == "start" {
			s.proc.OnSessionStart(ev.Session, ev.User, ev.Ts, ev.Cat)
		} else {
			s.proc.OnAccess(ev.Session, ev.Ts)
		}
	}
	s.mu.Unlock()
	s.events.Add(int64(len(evs)))
	writeJSON(w, http.StatusAccepted, map[string]int{"accepted": len(evs)})
}

// handlePredict validates the request and runs the prediction on this
// handler goroutine.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if err := faults.Fire("server.predict", ""); err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	var in PredictIn
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&in); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if in.User < 0 || in.Ts <= 0 {
		writeErr(w, http.StatusBadRequest, "predict needs user >= 0 and ts > 0")
		return
	}
	if err := s.checkCat(in.Cat); err != nil {
		writeErr(w, http.StatusBadRequest, "predict: "+err.Error())
		return
	}
	if s.shutdown.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	if !s.admitPredict() {
		writeErr(w, http.StatusTooManyRequests, "too many predicts in flight, request shed")
		return
	}
	dec := s.svc.OnSessionStart(in.User, in.Ts, in.Cat)
	s.releasePredict()
	writeJSON(w, http.StatusOK, PredictOut{Probability: dec.Probability, Precompute: dec.Precompute})
}

// handleFlush fires every outstanding session timer and waits for the
// micro-batcher to drain — the end-of-replay barrier load generators call
// before taking a digest.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if err := faults.Fire("server.flush", ""); err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.mu.Lock()
	if s.draining {
		// Same guard as handleEvent: once Shutdown has latched draining the
		// lanes are (about to be) closed, and Flush would dispatch into them —
		// a send on a closed channel. A flush racing SIGTERM gets a clean 503;
		// Shutdown itself runs the final Flush under mu.
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.proc.Flush()
	pending := s.proc.Pending()
	s.mu.Unlock()
	s.pool.Sync()
	writeJSON(w, http.StatusOK, map[string]int64{
		"updates_run": s.pool.UpdatesRun(),
		"pending":     int64(pending),
	})
}

// handleDigest returns the SHA-256 digest of the resident state. A digest
// taken mid-traffic matches no consistent store state, so the endpoint
// refuses with 409 while sessions are buffered or finalisations are in
// flight — POST /flush first (the check is best-effort: quiescing the
// traffic source is the caller's job).
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if pending, inflight, ok := s.quiesced(); !ok {
		writeErr(w, http.StatusConflict, fmt.Sprintf(
			"%d sessions pending, %d finalisations in flight — POST /flush first", pending, inflight))
		return
	}
	digest, keys := serving.StateDigest(s.opts.Store)
	writeJSON(w, http.StatusOK, map[string]any{
		"keys":   keys,
		"digest": digest,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStatz reports the serving tier's counters.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the server's counters (the /statz payload).
func (s *Server) Stats() Statz {
	s.mu.Lock()
	pending := s.proc.Pending()
	s.mu.Unlock()
	st := Statz{
		UptimeSec:       time.Since(s.start).Seconds(),
		Events:          s.events.Load(),
		EventsShed:      s.eventsShed.Load(),
		Predicts:        s.predicts.Load(),
		PredictsShed:    s.predictsShed.Load(),
		Precomputes:     s.svc.Precomputes.Load(),
		ColdStarts:      s.svc.ColdStarts.Load(),
		DecodeFailures:  s.svc.DecodeFailures.Load(),
		UpdatesRun:      s.pool.UpdatesRun(),
		PendingSessions: pending,
		Inflight:        s.pool.Inflight(),
		Batches:         s.pool.Batches(),
		Precision:       s.opts.Precision.String(),
		Kernel:          tensor.KernelF64(),
		Store:           s.opts.Store.Stats(),
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(st.UpdatesRun) / float64(st.Batches)
	}
	if s.opts.State != nil {
		ls := s.opts.State.Lifecycle()
		st.Lifecycle = &ls
	}
	return st
}
