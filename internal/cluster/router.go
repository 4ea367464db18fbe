package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/wire"
)

// The router is the cluster's front door: it speaks the same HTTP API as a
// single ppserve replica — POST /event, /predict, /flush and GET /statz,
// /healthz, /digest — so load generators and clients are agnostic to
// whether they face one process or a cluster. Data-plane requests are
// forwarded to the owning replica (users consistent-hash to exactly one);
// control-plane requests fan out to every replica and aggregate.
//
// Ordering: the router preserves the serving tier's parity contract. A
// user's events arrive on one client connection in timestamp order, each
// POST is forwarded synchronously before its response is returned, and a
// user maps to one replica — so per-user event order is preserved
// end-to-end. A session's start+access pair rides one POST and is grouped
// into one sub-POST. Access events whose start is not in the same POST are
// broadcast: only the owning replica can have the session buffered, and the
// stream processor drops accesses for unknown sessions, so a broadcast is
// semantically exact (it merely advances the other replicas' virtual
// clocks, which global timestamp order advances anyway).
//
// Resharding holds the router's write lock, so clients observe a reshard as
// a pause, never as disorder: drain the sources (flush → quiesce), move
// the affected key ranges through the statestore export/import seam, drop
// them from the old owners, and only then swap the ring.

// Options configures a Router.
type Options struct {
	// Replicas are the ppserve replica base URLs (e.g. "http://127.0.0.1:8101").
	Replicas []string
	// VNodes is the per-replica virtual-node count (<=0 selects
	// DefaultVNodes). Every ring this router builds uses the same value.
	VNodes int
	// Client overrides the forwarding HTTP client (nil selects a pooled
	// default with no client-level timeout: deadlines are per-route via
	// DataTimeout/ControlTimeout, threaded through each request context).
	Client *http.Client
	// ImportChunk bounds entries per /import POST during a handoff (<=0
	// selects 512), keeping transfer bodies under the replicas' body cap.
	ImportChunk int

	// DataTimeout bounds one data-plane forward (/event, /predict;
	// <=0 selects 10s). Replacing the old client-wide 120s catch-all:
	// an event post should never wait two minutes on a wedged replica.
	DataTimeout time.Duration
	// ControlTimeout bounds one control-plane request — flush, digest,
	// statz, transfers, promote (<=0 selects 2m; replica flushes and
	// bootstrap imports legitimately take a while).
	ControlTimeout time.Duration
	// PredictRetries is the retry budget for one predict forward (<0
	// disables; 0 selects 2). Predicts are idempotent reads, so a
	// transient transport failure retries in place with jittered backoff;
	// event posts never retry here (the client owns event replay).
	PredictRetries int
	// BreakerFails is how many consecutive forward failures trip a
	// replica's circuit breaker (<=0 selects 5); BreakerCooldown is how
	// long it stays open before a half-open trial (<=0 selects 1s).
	BreakerFails    int
	BreakerCooldown time.Duration

	// WireAddrs maps a replica base URL to its binary-protocol listen
	// address (ppserve -wire-addr). Replicas listed here are forwarded
	// events and predicts over persistent wire connections (the splice
	// fast path); absent replicas — e.g. a follower promoted by failover
	// without a configured wire listener — fall back to HTTP forwarding.
	WireAddrs map[string]string
	// WireConns is the per-replica wire connection pool size (<=0 selects
	// 4). Inbound wire connections pin to one pooled connection, which is
	// what preserves per-user request order across the hop.
	WireConns int
	// WireWindow caps in-flight requests per pooled connection (<=0
	// selects 64).
	WireWindow int

	// Followers maps a ring replica's URL to the follower replicating it
	// (ppserve -replica-of). When the replica dies, Failover promotes the
	// follower into its arcs.
	Followers map[string]string
	// Spares are standby followers (ppserve -follow) available for
	// re-replication after a failover consumes a follower.
	Spares []string
	// ProbeInterval enables the health prober: every interval, each known
	// node is probed; ProbeFails consecutive failures (<=0 selects 3)
	// declare a ring replica dead and trigger its failover. 0 disables
	// the prober (then /healthz probes synchronously on demand).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (<=0 selects 1s).
	ProbeTimeout time.Duration
	ProbeFails   int
}

// Router implements http.Handler for the cluster API.
type Router struct {
	opts   Options
	client *http.Client

	// mu orders traffic against resharding and failover: handlers forward
	// under RLock, Reshard and Failover hold the write lock
	// across drain, transfer and ring cutover. The ring pointer (and the
	// follower/spare topology) only change under the write lock.
	mu        sync.RWMutex
	ring      *Ring
	followers map[string]string
	spares    []string
	failovers int

	// Health tracker (health.go): per-node probe state under healthMu,
	// which is a leaf below mu.
	probeClient     *http.Client
	healthMu        sync.Mutex
	health          map[string]*healthState
	lastFailoverErr string
	proberOnce      sync.Once
	proberStop      sync.Once
	proberStopCh    chan struct{}
	proberWG        sync.WaitGroup
	rereplicateWG   sync.WaitGroup
	// probeNow nudges the prober out of its tick wait (a tripped breaker
	// should not wait out a probe interval to start the failover clock).
	probeNow chan struct{}

	// Forwarding taxonomy and breakers (forward.go), under the fwdMu
	// leaf lock.
	fwdMu            sync.Mutex
	fwd              map[string]*replicaFwd
	degradedPredicts atomic.Int64

	// Binary transport (wire.go): outbound per-replica client pools and
	// the inbound listener registry, under the wireMu leaf lock.
	wireMu        sync.Mutex
	wireAddrs     map[string]string
	wirePools     map[string]*wire.Client
	wireListeners map[net.Listener]struct{}
	wireConnsIn   map[net.Conn]struct{}
	wireClosed    atomic.Bool
	wireConnSeq   atomic.Uint64

	start    time.Time
	reshards int
	moved    int
	mux      *http.ServeMux
}

// ReplicaStatz is one replica's /statz snapshot, tagged with its URL.
type ReplicaStatz struct {
	URL   string       `json:"url"`
	Statz server.Statz `json:"statz"`
}

// Statz is the router's /statz payload: the aggregate (summed) view in the
// exact shape of a single replica's Statz — so single-process clients like
// ppload decode it unchanged — plus the per-replica breakdown, the
// forwarding-error taxonomy, and the degraded-predict count.
type Statz struct {
	server.Statz
	Replicas         []ReplicaStatz          `json:"replicas"`
	Reshards         int                     `json:"reshards"`
	Moved            int                     `json:"moved_states"`
	Failovers        int                     `json:"failovers"`
	DegradedPredicts int64                   `json:"degraded_predicts"`
	Forwarding       map[string]ForwardStats `json:"forwarding,omitempty"`
}

// New builds a router over the given replicas.
func New(opts Options) (*Router, error) {
	ring, err := NewRing(opts.Replicas, opts.VNodes)
	if err != nil {
		return nil, err
	}
	if opts.ImportChunk <= 0 {
		opts.ImportChunk = 512
	}
	if opts.DataTimeout <= 0 {
		opts.DataTimeout = 10 * time.Second
	}
	if opts.ControlTimeout <= 0 {
		opts.ControlTimeout = 2 * time.Minute
	}
	if opts.PredictRetries == 0 {
		opts.PredictRetries = 2
	}
	if opts.PredictRetries < 0 {
		opts.PredictRetries = 0
	}
	client := opts.Client
	if client == nil {
		// No client-level timeout: every forward carries its own per-route
		// context deadline (forward.go), so a long control-plane flush and a
		// short data-plane post stop sharing one catch-all budget. The fault
		// layer wraps the transport so chaos scenarios can shape this path.
		client = &http.Client{
			Transport: faults.WrapTransport("router.forward",
				&http.Transport{MaxIdleConnsPerHost: 64}),
		}
	}
	probeTimeout := opts.ProbeTimeout
	if probeTimeout <= 0 {
		probeTimeout = time.Second
	}
	// Wall-clock seam: start only feeds the /statz uptime gauge, never a
	// routing or replay decision.
	r := &Router{opts: opts, client: client, ring: ring, start: time.Now()} //pplint:allow virtualclock
	r.followers = make(map[string]string, len(opts.Followers))
	for primary, follower := range opts.Followers {
		r.followers[primary] = follower
	}
	r.spares = append([]string(nil), opts.Spares...)
	r.probeClient = &http.Client{
		Timeout:   probeTimeout,
		Transport: faults.WrapTransport("router.probe", nil),
	}
	r.health = make(map[string]*healthState)
	r.proberStopCh = make(chan struct{})
	r.probeNow = make(chan struct{}, 1)
	r.fwd = make(map[string]*replicaFwd)
	r.wireAddrs = make(map[string]string, len(opts.WireAddrs))
	for base, addr := range opts.WireAddrs {
		r.wireAddrs[strings.TrimRight(base, "/")] = addr
	}
	r.wirePools = make(map[string]*wire.Client)
	r.wireListeners = make(map[net.Listener]struct{})
	r.wireConnsIn = make(map[net.Conn]struct{})
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("/event", r.handleEvent)
	r.mux.HandleFunc("/predict", r.handlePredict)
	r.mux.HandleFunc("/flush", r.handleFlush)
	r.mux.HandleFunc("/statz", r.handleStatz)
	r.mux.HandleFunc("/healthz", r.handleHealthz)
	r.mux.HandleFunc("/digest", r.handleDigest)
	r.mux.HandleFunc("/ring", r.handleRing)
	r.mux.HandleFunc("/admin/reshard", r.handleReshard)
	return r, nil
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

// Ring returns the current ring (immutable; safe to use after return).
func (r *Router) Ring() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// postJSON posts v to base+path through the hardened forward path and
// decodes the response into out (unless nil), returning the status code.
func (r *Router) postJSON(ctx context.Context, base, path string, v any, out any, o fwdOpts) (int, error) {
	var body []byte
	if v != nil {
		buf, err := json.Marshal(v)
		if err != nil {
			return 0, err
		}
		body = buf
	}
	resp, err := r.forward(ctx, http.MethodPost, base, path, body, o)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
		return resp.StatusCode, nil
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// getJSON fetches base+path through the forward path into out.
func (r *Router) getJSON(ctx context.Context, base, path string, out any, o fwdOpts) (int, error) {
	resp, err := r.forward(ctx, http.MethodGet, base, path, nil, o)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
		return resp.StatusCode, nil
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// ---- data plane ----

// handleEvent splits a post by owning replica (preserving in-post order)
// and forwards the sub-posts concurrently, waiting for every response
// before answering — which is what keeps per-user order intact across
// consecutive posts on one connection.
func (r *Router) handleEvent(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 8<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	var evs []server.Event
	if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		err = json.Unmarshal(trimmed, &evs)
	} else {
		var ev server.Event
		err = json.Unmarshal(body, &ev)
		evs = []server.Event{ev}
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "decoding events: "+err.Error())
		return
	}

	r.mu.RLock()
	ring := r.ring
	groups := map[string][]server.Event{}
	sessionOwner := map[string]string{}
	for _, ev := range evs {
		switch ev.Type {
		case "start":
			owner := ring.OwnerOfUser(ev.User)
			sessionOwner[ev.Session] = owner
			groups[owner] = append(groups[owner], ev)
		default:
			// Accesses ride the same POST as their start (the parity
			// contract); orphans broadcast — exact, because only the owner
			// can hold the session buffer.
			if owner, ok := sessionOwner[ev.Session]; ok {
				groups[owner] = append(groups[owner], ev)
			} else {
				for _, u := range ring.Replicas() {
					groups[u] = append(groups[u], ev)
				}
			}
		}
	}

	type result struct {
		status int
		err    error
	}
	results := make(chan result, len(groups))
	for url, group := range groups {
		go func(url string, group []server.Event) {
			// Events forward with the data-plane deadline and breaker but a
			// zero retry budget: replaying an event post is only safe when
			// the client re-sends the whole ordered post, so retries belong
			// to the load generator, not the router.
			status, err := r.postJSON(req.Context(), url, "/event", group, nil, r.dataOpts(0))
			results <- result{status, err}
		}(url, group)
	}
	worst := http.StatusAccepted
	var ferr error
	for range groups {
		// Collecting under r.mu.RLock is the drain mechanism: reshard
		// takes the write lock, so it cannot swap the ring while a POST
		// split by the old ring is still landing on replicas.
		res := <-results //pplint:allow lockcheck
		switch {
		case res.err != nil:
			worst, ferr = http.StatusBadGateway, res.err
		case res.status == http.StatusAccepted:
		case res.status == http.StatusTooManyRequests && worst == http.StatusAccepted:
			worst = res.status
		case res.status != http.StatusTooManyRequests:
			if worst == http.StatusAccepted || worst == http.StatusTooManyRequests {
				worst = res.status
			}
		}
	}
	r.mu.RUnlock()

	switch {
	case ferr != nil:
		writeErr(w, http.StatusBadGateway, "forwarding events: "+ferr.Error())
	case worst == http.StatusAccepted:
		writeJSON(w, http.StatusAccepted, map[string]int{"accepted": len(evs)})
	case worst == http.StatusTooManyRequests:
		writeErr(w, worst, "replica backlog full, event shed")
	default:
		writeErr(w, worst, fmt.Sprintf("replica rejected events (HTTP %d)", worst))
	}
}

// handlePredict forwards the prediction to the owning replica (with the
// per-route deadline and retry budget) and relays its response verbatim.
// When the owner is unreachable — transport failure, open breaker, or a
// 5xx after retries — it degrades instead of failing: the other ring
// replicas are tried in order, and the first 200 is relayed with the
// degraded flag set. The fallback replica has no state for this user, so
// its answer is the cold-start (h0) prediction — the paper's degradation
// contract: a usable answer from the prior beats an error page.
func (r *Router) handlePredict(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	var in server.PredictIn
	if err := json.Unmarshal(body, &in); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}

	ctx := req.Context()
	r.mu.RLock()
	ring := r.ring
	owner := ring.OwnerOfUser(in.User)
	// Forwarding under r.mu.RLock is deliberate: a reshard (write lock)
	// must not rehome this user while the predict is in flight on the
	// replica the old ring chose.
	resp, err := r.forward(ctx, http.MethodPost, owner, "/predict", body, r.dataOpts(r.opts.PredictRetries))
	if err == nil && resp.StatusCode < http.StatusInternalServerError {
		r.mu.RUnlock()
		defer resp.Body.Close()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var out server.PredictOut
	degraded := false
	for _, u := range ring.Replicas() {
		if u == owner {
			continue
		}
		fresp, ferr := r.forward(ctx, http.MethodPost, u, "/predict", body, r.dataOpts(0))
		if ferr != nil {
			continue
		}
		if fresp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, fresp.Body)
			fresp.Body.Close()
			continue
		}
		derr := json.NewDecoder(fresp.Body).Decode(&out)
		fresp.Body.Close()
		if derr == nil {
			degraded = true
			break
		}
	}
	r.mu.RUnlock()
	if degraded {
		out.Degraded = true
		r.degradedPredicts.Add(1)
		writeJSON(w, http.StatusOK, out)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadGateway, "forwarding predict: "+err.Error())
		return
	}
	writeErr(w, http.StatusBadGateway, fmt.Sprintf("owner replied HTTP %d and no fallback replica answered", resp.StatusCode))
}

// ---- control plane ----

// eachReplica runs fn against every replica URL concurrently and collects
// the first error.
func eachReplica(urls []string, fn func(url string) error) error {
	errs := make(chan error, len(urls))
	for _, u := range urls {
		go func(u string) { errs <- fn(u) }(u)
	}
	var first error
	for range urls {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// handleFlush fans the flush to every replica and sums the results.
func (r *Router) handleFlush(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	r.mu.RLock()
	urls := r.ring.Replicas()
	var mu sync.Mutex
	var updates, pending int64
	err := eachReplica(urls, func(u string) error {
		var out struct {
			UpdatesRun int64 `json:"updates_run"`
			Pending    int64 `json:"pending"`
		}
		status, err := r.postJSON(req.Context(), u, "/flush", nil, &out, r.ctlOpts())
		if err != nil {
			return fmt.Errorf("%s: %w", u, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: flush HTTP %d", u, status)
		}
		mu.Lock()
		updates += out.UpdatesRun
		pending += out.Pending
		mu.Unlock()
		return nil
	})
	r.mu.RUnlock()
	if err != nil {
		writeErr(w, http.StatusBadGateway, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"updates_run": updates, "pending": pending})
}

// handleDigest aggregates the replicas' digests. StateDigest is additive
// over disjoint key sets, so the combination is independent of replica
// order and equals what a single process holding every state would report.
func (r *Router) handleDigest(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	r.mu.RLock()
	urls := r.ring.Replicas()
	var mu sync.Mutex
	keys := 0
	digests := make([]string, 0, len(urls))
	conflict := false
	err := eachReplica(urls, func(u string) error {
		resp, err := r.forward(req.Context(), http.MethodGet, u, "/digest", nil, r.ctlOpts())
		if err != nil {
			// Transport failure: the replica is unreachable, not busy —
			// surface 502, never the retryable 409.
			return fmt.Errorf("%s: %w", u, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			if resp.StatusCode == http.StatusConflict {
				mu.Lock()
				conflict = true
				mu.Unlock()
			}
			io.Copy(io.Discard, resp.Body)
			return fmt.Errorf("%s: digest HTTP %d", u, resp.StatusCode)
		}
		var out struct {
			Keys   int    `json:"keys"`
			Digest string `json:"digest"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return fmt.Errorf("%s: %w", u, err)
		}
		mu.Lock()
		keys += out.Keys
		digests = append(digests, out.Digest)
		mu.Unlock()
		return nil
	})
	r.mu.RUnlock()
	if err != nil {
		code := http.StatusBadGateway
		if conflict {
			// Only a genuine replica 409 (sessions pending — flush first)
			// maps back to 409.
			code = http.StatusConflict
		}
		writeErr(w, code, err.Error())
		return
	}
	combined, err := serving.CombineDigests(digests...)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"keys": keys, "digest": combined})
}

// handleHealthz aggregates per-node probe results: 200 with the breakdown
// while every arc has a healthy owner, 503 with the same breakdown once
// any ring replica is past the failure threshold. Without a running
// prober (ProbeInterval 0) it runs one synchronous probe round first, so
// the answer is always grounded in a real probe.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if r.opts.ProbeInterval <= 0 {
		r.probeOnce()
	}
	nodes, degraded := r.healthBreakdown()
	r.healthMu.Lock()
	lastErr := r.lastFailoverErr
	r.healthMu.Unlock()
	status := "ok"
	code := http.StatusOK
	if degraded {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":            status,
		"replicas":          nodes,
		"failovers":         r.Failovers(),
		"last_failover_err": lastErr,
	})
}

// handleStatz sums the replicas' counters into one single-replica-shaped
// aggregate plus the per-replica breakdown.
func (r *Router) handleStatz(w http.ResponseWriter, req *http.Request) {
	r.mu.RLock()
	urls := r.ring.Replicas()
	reshards, moved, failovers := r.reshards, r.moved, r.failovers
	r.mu.RUnlock()
	var mu sync.Mutex
	out := Statz{Reshards: reshards, Moved: moved, Failovers: failovers}
	out.UptimeSec = time.Since(r.start).Seconds() //pplint:allow virtualclock (uptime gauge only)
	out.DegradedPredicts = r.degradedPredicts.Load()
	out.Forwarding = r.ForwardingStats()
	err := eachReplica(urls, func(u string) error {
		var st server.Statz
		status, err := r.getJSON(req.Context(), u, "/statz", &st, r.ctlOpts())
		if err != nil {
			return fmt.Errorf("%s: %w", u, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: statz HTTP %d", u, status)
		}
		mu.Lock()
		defer mu.Unlock()
		out.Replicas = append(out.Replicas, ReplicaStatz{URL: u, Statz: st})
		out.Events += st.Events
		out.EventsShed += st.EventsShed
		out.Predicts += st.Predicts
		out.PredictsShed += st.PredictsShed
		out.Precomputes += st.Precomputes
		out.ColdStarts += st.ColdStarts
		out.DecodeFailures += st.DecodeFailures
		out.UpdatesRun += st.UpdatesRun
		out.PendingSessions += st.PendingSessions
		out.Inflight += st.Inflight
		out.Batches += st.Batches
		out.Store.Keys += st.Store.Keys
		out.Store.Gets += st.Store.Gets
		out.Store.Puts += st.Store.Puts
		out.Store.Misses += st.Store.Misses
		out.Store.BytesRead += st.Store.BytesRead
		out.Store.BytesPut += st.Store.BytesPut
		out.Store.BytesStored += st.Store.BytesStored
		// Sequence numbers are per-replica positions, not volumes: the
		// aggregate carries the maximum (the breakdown has the rest).
		if st.Store.WALSeq > out.Store.WALSeq {
			out.Store.WALSeq = st.Store.WALSeq
		}
		if st.Store.SnapSeq > out.Store.SnapSeq {
			out.Store.SnapSeq = st.Store.SnapSeq
		}
		return nil
	})
	if err != nil {
		writeErr(w, http.StatusBadGateway, err.Error())
		return
	}
	if out.Batches > 0 {
		out.MeanBatch = float64(out.UpdatesRun) / float64(out.Batches)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleRing describes the current ring.
func (r *Router) handleRing(w http.ResponseWriter, req *http.Request) {
	r.mu.RLock()
	ring := r.ring
	r.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"replicas": ring.Replicas(),
		"vnodes":   ring.VNodes(),
	})
}

// handleReshard is the admin trigger: POST {"replicas": [...]} cuts the
// cluster over to the new replica set via drain-and-handoff.
func (r *Router) handleReshard(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var in struct {
		Replicas []string `json:"replicas"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20)).Decode(&in); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding reshard: "+err.Error())
		return
	}
	moved, err := r.Reshard(in.Replicas)
	if err != nil {
		writeErr(w, http.StatusBadGateway, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"replicas": in.Replicas, "moved": moved})
}
