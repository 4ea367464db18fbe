// Package loadgen is the load client for the online server: it replays
// an event log over the HTTP API or the binary wire protocol, closed- or
// open-loop, and reports latency histograms. It is shared by cmd/ppload
// (standalone driver), the cluster/failover/chaos experiments and the
// parity tests, and its per-user ordering rules are what make a replay
// parity-comparable with in-process sequential replay: users are sharded
// across workers (a user's events stay on one connection, in timestamp
// order) and a session's start and access events always ride the same
// post. The two transports differ only in how a post or a predict is
// encoded and how its reply is classified; chunking, pacing, retries and
// accounting are one path.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/synth"
	"repro/internal/wire"
)

// ReplayEvent is one session of the replay log: a start event plus an
// optional access 30 virtual seconds later (the same shape ppserve's
// offline replay drives in-process).
type ReplayEvent struct {
	SID    string
	User   int
	Ts     int64
	Cat    []int
	Access bool
}

// ReplayCohort generates the deterministic MobileTab serving cohort:
// users*2 synthetic users, half for training, half replayed. ppserve,
// ppload and the cluster experiments all derive their cohorts (and so
// their replay logs) from this one function, which is what makes the HTTP
// parity gate compare identical traffic and identically-trained models by
// construction.
func ReplayCohort(users int, seed uint64) (*dataset.Dataset, dataset.Split) {
	cfg := synth.DefaultMobileTab()
	cfg.Users = users * 2
	cfg.Seed = seed
	data := synth.GenerateMobileTab(cfg)
	return data, dataset.SplitUsers(data, 0.5, seed)
}

// ReplayLog builds the timestamp-ordered replay log of the held-out
// cohort half — the exact event stream ppserve's offline mode replays
// in-process.
func ReplayLog(users int, seed uint64) []ReplayEvent {
	_, split := ReplayCohort(users, seed)
	return LogFromDataset(split.Test)
}

// LogFromDataset flattens a dataset (e.g. a ppgen file) into a
// timestamp-ordered replay log.
func LogFromDataset(d *dataset.Dataset) []ReplayEvent {
	var evs []ReplayEvent
	for _, u := range d.Users {
		for i, s := range u.Sessions {
			evs = append(evs, ReplayEvent{
				SID:    fmt.Sprintf("u%d-s%d", u.ID, i),
				User:   u.ID,
				Ts:     s.Timestamp,
				Cat:    s.Cat,
				Access: s.Access,
			})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	return evs
}

// LoadOptions configures one load run.
type LoadOptions struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Concurrency is the number of closed-loop connections; users are
	// sharded across them by hash (<=0 selects 8).
	Concurrency int
	// EventsPerPost coalesces this many events per POST /event (<=0
	// selects 16). A session's start+access pair is never split.
	EventsPerPost int
	// PredictEvery enables predict-latency sampling: a dedicated sampler
	// connection strides the log by this many sessions, posting one
	// /predict per PredictInterval while the event replay runs (0 = no
	// predictions). Sampling rides its own connection so latency is
	// measured under load without throttling the event stream.
	PredictEvery int
	// PredictInterval paces the predict sampler (<=0 selects 10ms).
	PredictInterval time.Duration
	// RatePerSec paces the run open-loop at this many sessions/s across
	// all workers (0 = closed loop: send as fast as responses return).
	RatePerSec float64
	// Flush POSTs /flush after the replay (inside the timed window — the
	// drain is part of the served work).
	Flush bool
	// RetryFailed re-sends an event post that failed in transit or came
	// back 5xx up to this many times before advancing (0 = fail fast and
	// drop the batch, the historical behavior). Retries happen in place,
	// so a user's event order is preserved — that is what keeps "zero
	// lost states" reachable while the cluster rides out a failover or a
	// breaker-open window. Shed (429) batches are never retried: shedding
	// is the server's explicit choice, not a fault.
	RetryFailed int
	// RetryBackoff is the pause between event-post retries (<=0 selects
	// 50ms).
	RetryBackoff time.Duration
	// WireAddr switches the hot path (events, predicts) onto the binary
	// wire protocol at this host:port, one persistent pooled connection
	// per worker. The control plane (/flush, /digest, /statz) stays on
	// BaseURL over HTTP. Empty keeps everything on HTTP.
	WireAddr string
}

// LatencyStats summarises one endpoint's request latencies.
type LatencyStats struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// LoadReport is the outcome of one load run.
type LoadReport struct {
	// Sessions is the log size; SessionsAccepted counts sessions the
	// server actually admitted (a shed post's sessions are excluded).
	// SessionsPerSec is accepted sessions over wall time, so shedding
	// cannot inflate throughput.
	Sessions         int `json:"sessions"`
	SessionsAccepted int `json:"sessions_accepted"`
	Events           int `json:"events"`
	Posts            int `json:"posts"`
	Predicts         int `json:"predicts"`
	// Shed counts shed *events* (a 429 event post sheds its whole batch);
	// PredictsShed counts shed predict *requests* — different units, so
	// they are reported separately.
	Shed         int `json:"shed"`
	PredictsShed int `json:"predicts_shed"`
	Errors       int `json:"errors"`
	// Retries counts event-post re-sends (RetryFailed > 0); a batch that
	// eventually lands after retries is not an error. DegradedPredicts
	// counts 200 predict responses that carried the degraded flag — the
	// router answered from a non-owner replica while the owner was down.
	Retries          int `json:"retries,omitempty"`
	DegradedPredicts int `json:"degraded_predicts,omitempty"`
	// EventsPerPostMean is the realized batch size: accepted events over
	// event posts sent. It differs from the configured EventsPerPost when
	// chunks flush early to keep start/access pairs whole, or when posts
	// are retried — throughput comparisons need the realized value, not
	// the knob.
	EventsPerPostMean float64      `json:"events_per_post_mean,omitempty"`
	WallMs            float64      `json:"wall_ms"`
	SessionsPerSec    float64      `json:"sessions_per_sec"`
	EventLatency      LatencyStats `json:"event_latency"`
	PredictLatency    LatencyStats `json:"predict_latency"`
}

// loadWorker drives one connection's share of the log.
type loadWorker struct {
	opts         LoadOptions
	tr           transport
	sessions     []ReplayEvent
	eventLat     []float64
	predictLat   []float64
	events       int
	sessionsOK   int // sessions whose post was accepted
	posts        int
	predicts     int
	shed         int // events shed
	predictsShed int // predict requests shed
	errors       int
	retries      int // event-post re-sends under RetryFailed
	degraded     int // accepted predicts answered degraded by the router
}

// RunLoad replays log over the HTTP API, or the wire protocol when
// WireAddr is set, and reports throughput and latency. The returned error
// covers setup problems only; per-request failures are counted in the
// report.
func RunLoad(opts LoadOptions, log []ReplayEvent) (*LoadReport, error) {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.EventsPerPost <= 0 {
		opts.EventsPerPost = 16
	}
	if opts.PredictInterval <= 0 {
		opts.PredictInterval = 10 * time.Millisecond
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 50 * time.Millisecond
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: opts.Concurrency * 2,
		},
	}

	// In wire mode the hot path rides a pooled binary client: one pooled
	// connection per worker plus one for the predict sampler, so the
	// per-worker (and therefore per-user) ordering contract carries over
	// unchanged from the HTTP transport.
	newTransport := func(lane int) transport { return &httpTransport{client: client, baseURL: opts.BaseURL} }
	if opts.WireAddr != "" {
		wcl := wire.NewClient(opts.WireAddr, wire.ClientOptions{Conns: opts.Concurrency + 1})
		defer wcl.Close()
		newTransport = func(lane int) transport { return &wireTransport{client: wcl, lane: uint64(lane)} }
	}

	// Shard sessions by user: all of a user's sessions ride one worker, in
	// log (timestamp) order — the ordering contract the parity gate needs.
	workers := make([]*loadWorker, opts.Concurrency)
	for i := range workers {
		workers[i] = &loadWorker{opts: opts, tr: newTransport(i)}
	}
	for _, ev := range log {
		w := workers[serving.UserLane(ev.User, len(workers))]
		w.sessions = append(w.sessions, ev)
	}

	t0 := time.Now()
	var replay, sampling sync.WaitGroup
	for _, w := range workers {
		replay.Add(1)
		go func() {
			defer replay.Done()
			w.run(t0)
		}()
	}
	stop := make(chan struct{})
	if opts.PredictEvery > 0 && len(log) > 0 {
		sampler := &loadWorker{opts: opts, tr: newTransport(opts.Concurrency)}
		workers = append(workers, sampler)
		sampling.Add(1)
		go func() {
			defer sampling.Done()
			sampler.samplePredicts(log, stop)
		}()
	}
	replay.Wait()
	close(stop)
	sampling.Wait()
	if opts.Flush {
		if err := flush(client, opts.BaseURL); err != nil {
			return nil, fmt.Errorf("flush: %w", err)
		}
	}
	wall := time.Since(t0)

	rep := &LoadReport{
		Sessions: len(log),
		WallMs:   float64(wall.Nanoseconds()) / 1e6,
	}
	var evLat, prLat []float64
	for _, w := range workers {
		rep.Events += w.events
		rep.SessionsAccepted += w.sessionsOK
		rep.Posts += w.posts
		rep.Predicts += w.predicts
		rep.Shed += w.shed
		rep.PredictsShed += w.predictsShed
		rep.Errors += w.errors
		rep.Retries += w.retries
		rep.DegradedPredicts += w.degraded
		evLat = append(evLat, w.eventLat...)
		prLat = append(prLat, w.predictLat...)
	}
	rep.SessionsPerSec = float64(rep.SessionsAccepted) / wall.Seconds()
	if rep.Posts > 0 {
		rep.EventsPerPostMean = float64(rep.Events) / float64(rep.Posts)
	}
	rep.EventLatency = summarize(evLat)
	rep.PredictLatency = summarize(prLat)
	return rep, nil
}

// samplePredicts is the predict-latency side channel: it strides the log,
// posting one predict per interval until the event replay finishes (at
// least one is always posted).
func (w *loadWorker) samplePredicts(log []ReplayEvent, stop <-chan struct{}) {
	for i := 0; ; i++ {
		w.predict(log[(i*w.opts.PredictEvery)%len(log)])
		select {
		case <-stop:
			return
		case <-time.After(w.opts.PredictInterval):
		}
	}
}

// run replays the worker's sessions: coalesce events into posts, pace if
// open-loop. A post is flushed only between sessions, once it holds at
// least EventsPerPost events, so a session's start+access pair always
// rides one post whole.
func (w *loadWorker) run(start time.Time) {
	perWorker := w.opts.RatePerSec / float64(w.opts.Concurrency)
	var count, starts int
	for sent, ev := range w.sessions {
		if perWorker > 0 {
			due := start.Add(time.Duration(float64(sent) / perWorker * float64(time.Second)))
			time.Sleep(time.Until(due))
		}
		w.tr.add(ev)
		count, starts = count+1, starts+1
		if ev.Access {
			count++
		}
		if count >= w.opts.EventsPerPost {
			w.post(count, starts)
			count, starts = 0, 0
		}
	}
	if count > 0 {
		w.post(count, starts)
	}
}

// post sends the pending post of count events carrying starts sessions.
// It retries in place: the same post is re-sent until it is accepted,
// shed or refused, or the RetryFailed budget runs out. Because the worker
// does not advance past a failed post, a user's events still reach the
// server in timestamp order even when some posts ride out a failover
// window. A latency sample is taken only when a reply arrives.
func (w *loadWorker) post(count, starts int) {
	defer w.tr.reset()
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		o := w.tr.send(count)
		w.posts++
		if o != lost {
			w.eventLat = append(w.eventLat, sinceMs(t0))
		}
		switch {
		case o == accepted:
			w.events += count
			w.sessionsOK += starts
			return
		case o == shed:
			w.shed += count
			return
		case o == failed || attempt >= w.opts.RetryFailed:
			w.errors++
			return
		}
		w.retries++
		time.Sleep(w.opts.RetryBackoff)
	}
}

// predict samples one predict. It makes a single attempt: a failed sample
// is an error count, not a retry loop distorting the latency histogram.
func (w *loadWorker) predict(ev ReplayEvent) {
	t0 := time.Now()
	o, degraded := w.tr.predict(ev)
	switch o {
	case accepted:
		w.predicts++
		w.predictLat = append(w.predictLat, sinceMs(t0))
		if degraded {
			w.degraded++
		}
	case shed:
		w.predictsShed++
	default:
		w.errors++
	}
}

func sinceMs(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// outcome classifies one reply, the same way on both transports.
type outcome uint8

const (
	accepted  outcome = iota // 202 (200 for a predict); StatusOK
	shed                     // 429; StatusShed: the server's choice, never resent
	retryable                // 5xx; StatusError, StatusDraining: resent in place
	failed                   // any other reply: an error, not resent
	lost                     // no reply: delivery unknown, resent in place
)

// transport encodes one worker's posts and predicts in one protocol and
// classifies the replies; the worker owns chunking, pacing, retries and
// accounting.
type transport interface {
	// add appends ev's start, and its access if it has one, to the
	// pending post.
	add(ev ReplayEvent)
	// send sends the pending post of n events; calling it again re-sends
	// the same post.
	send(n int) outcome
	// reset empties the pending post.
	reset()
	// predict sends one predict for ev and reports whether an accepted
	// answer was degraded.
	predict(ev ReplayEvent) (outcome, bool)
}

// httpTransport posts server.Event JSON to /event and server.PredictIn
// JSON to /predict.
type httpTransport struct {
	client  *http.Client
	baseURL string
	chunk   []server.Event
}

func (t *httpTransport) add(ev ReplayEvent) {
	t.chunk = append(t.chunk, server.Event{Type: "start", Session: ev.SID, User: ev.User, Ts: ev.Ts, Cat: ev.Cat})
	if ev.Access {
		t.chunk = append(t.chunk, server.Event{Type: "access", Session: ev.SID, Ts: ev.Ts + 30})
	}
}

func (t *httpTransport) send(int) outcome {
	return t.post("/event", t.chunk, http.StatusAccepted, nil)
}

func (t *httpTransport) reset() { t.chunk = t.chunk[:0] }

func (t *httpTransport) predict(ev ReplayEvent) (outcome, bool) {
	var out server.PredictOut
	o := t.post("/predict", server.PredictIn{User: ev.User, Ts: ev.Ts, Cat: ev.Cat}, http.StatusOK, &out)
	return o, out.Degraded
}

// post sends v as JSON to path and classifies the reply; an accepted
// reply's body is decoded into out when out is non-nil.
func (t *httpTransport) post(path string, v any, okStatus int, out *server.PredictOut) outcome {
	body, _ := json.Marshal(v)
	resp, err := t.client.Post(t.baseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return lost
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == okStatus:
		if out != nil && json.NewDecoder(resp.Body).Decode(out) != nil {
			*out = server.PredictOut{}
		}
		return accepted
	case resp.StatusCode == http.StatusTooManyRequests:
		return shed
	case resp.StatusCode >= 500:
		return retryable
	}
	return failed
}

// wireTransport sends wire.AppendStart/AppendAccess batches through
// SendEvents and predicts through SendPredict, on its lane's pooled
// connection. SendEvents itself never retries: delivery after a transport
// error is unknown, and the double-apply rule says only the worker, which
// owns the post, decides.
type wireTransport struct {
	client *wire.Client
	lane   uint64
	buf    []byte // the pending batch, or the last predict payload
}

func (t *wireTransport) add(ev ReplayEvent) {
	t.buf = wire.AppendStart(t.buf, ev.User, ev.Ts, ev.SID, ev.Cat)
	if ev.Access {
		t.buf = wire.AppendAccess(t.buf, ev.User, ev.Ts+30, ev.SID)
	}
}

func (t *wireTransport) send(n int) outcome {
	ack, err := t.client.SendEvents(t.lane, n, t.buf)
	if err != nil {
		return lost
	}
	return wireOutcome(ack.Status)
}

func (t *wireTransport) reset() { t.buf = t.buf[:0] }

func (t *wireTransport) predict(ev ReplayEvent) (outcome, bool) {
	t.buf = wire.AppendPredict(t.buf[:0], ev.User, ev.Ts, ev.Cat)
	pr, err := t.client.SendPredict(t.lane, t.buf, 0)
	if err != nil {
		return lost, false
	}
	return wireOutcome(pr.Status), pr.Degraded
}

func wireOutcome(status byte) outcome {
	switch status {
	case wire.StatusOK:
		return accepted
	case wire.StatusShed:
		return shed
	case wire.StatusError, wire.StatusDraining:
		return retryable
	}
	return failed
}

// summarize sorts latencies and extracts the histogram quantiles using the
// explicit nearest-rank definition: Q(p) is the smallest sample such that at
// least p·n samples are <= it, i.e. the sorted sample at index ceil(p·n)−1.
func summarize(lat []float64) LatencyStats {
	switch len(lat) {
	case 0:
		return LatencyStats{}
	case 1:
		// Every quantile of a single sample is that sample.
		return LatencyStats{Count: 1, P50Ms: lat[0], P90Ms: lat[0], P95Ms: lat[0], P99Ms: lat[0], MaxMs: lat[0]}
	}
	sort.Float64s(lat)
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(lat)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i]
	}
	return LatencyStats{
		Count: len(lat),
		P50Ms: q(0.50),
		P90Ms: q(0.90),
		P95Ms: q(0.95),
		P99Ms: q(0.99),
		MaxMs: lat[len(lat)-1],
	}
}

// ---- client helpers for the control endpoints ----

// flush POSTs /flush, which answers once the server has drained.
func flush(client *http.Client, baseURL string) error {
	resp, err := client.Post(baseURL+"/flush", "application/json", nil)
	var out struct {
		UpdatesRun int64 `json:"updates_run"`
	}
	return decodeOK("flush", resp, err, &out)
}

// Digest GETs /digest and returns the server's resident-state digest.
func Digest(baseURL string) (keys int, digest string, err error) {
	resp, err := http.Get(baseURL + "/digest")
	var out struct {
		Keys   int    `json:"keys"`
		Digest string `json:"digest"`
	}
	if err := decodeOK("digest", resp, err, &out); err != nil {
		return 0, "", err
	}
	return out.Keys, out.Digest, nil
}

// decodeOK decodes the JSON body of a 200 reply into out. resp and err
// are one request's results; what names the endpoint in errors.
func decodeOK(what string, resp *http.Response, err error, out any) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", what, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// WaitHealthy polls /healthz until the server answers or the timeout
// elapses. Each probe has its own short timeout so one hung request
// cannot defeat the overall deadline.
func WaitHealthy(baseURL string, timeout time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not healthy after %s: %w", timeout, err)
			}
			return fmt.Errorf("server not healthy after %s", timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
