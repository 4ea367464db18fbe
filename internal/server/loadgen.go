package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/serving"
	"repro/internal/synth"
	"repro/internal/wire"
)

// The load generator replays an event log over the HTTP API, closed- or
// open-loop, and reports latency histograms. It is shared by cmd/ppload
// (standalone driver), the cluster/failover/chaos experiments and the
// parity tests, and its per-user ordering rules are what make the HTTP
// replay parity-comparable with in-process sequential replay: users are
// sharded across workers (a user's events stay on one connection, in
// timestamp order) and a session's start and access events always ride
// the same POST.

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
	// Client overrides the HTTP client (nil selects a pooled default).
	Client *http.Client
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
	client       *http.Client
	wcl          *wire.Client // non-nil in wire mode
	lane         uint64       // pins this worker to one pooled wire connection
	wireBuf      []byte       // reused encode buffer (events or predict payload)
	sessions     []ReplayEvent
	eventLat     []float64
	predictLat   []float64
	events       int
	sessionsOK   int // sessions whose post was accepted
	posts        int
	predicts     int
	shed         int // events shed via 429
	predictsShed int // predict requests shed via 429
	errors       int
	retries      int // event-post re-sends under RetryFailed
	degraded     int // 200 predicts answered degraded by the router
}

// RunLoad replays log over the HTTP API and reports throughput and latency.
// The returned error covers setup problems only; per-request failures are
// counted in the report.
func RunLoad(opts LoadOptions, log []ReplayEvent) (*LoadReport, error) {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.EventsPerPost <= 0 {
		opts.EventsPerPost = 16
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: opts.Concurrency * 2,
			},
		}
	}

	// In wire mode the hot path rides a pooled binary client: one pooled
	// connection per worker plus one for the predict sampler, so the
	// per-worker (and therefore per-user) ordering contract carries over
	// unchanged from the HTTP transport.
	var wcl *wire.Client
	if opts.WireAddr != "" {
		wcl = wire.NewClient(opts.WireAddr, wire.ClientOptions{Conns: opts.Concurrency + 1})
		defer wcl.Close()
	}

	// Shard sessions by user: all of a user's sessions ride one worker, in
	// log (timestamp) order — the ordering contract the parity gate needs.
	workers := make([]*loadWorker, opts.Concurrency)
	for i := range workers {
		workers[i] = &loadWorker{opts: opts, client: client, wcl: wcl, lane: uint64(i)}
	}
	for _, ev := range log {
		w := workers[serving.UserLane(ev.User, len(workers))]
		w.sessions = append(w.sessions, ev)
	}

	t0 := time.Now()
	done := make(chan struct{})
	for _, w := range workers {
		go func(w *loadWorker) {
			defer func() { done <- struct{}{} }()
			w.run(t0)
		}(w)
	}
	var sampler *loadWorker
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	if opts.PredictEvery > 0 && len(log) > 0 {
		sampler = &loadWorker{opts: opts, client: client, wcl: wcl, lane: uint64(opts.Concurrency)}
		go func() {
			defer close(samplerDone)
			sampler.samplePredicts(log, stopSampler)
		}()
	}
	for range workers {
		<-done
	}
	if sampler != nil {
		close(stopSampler)
		<-samplerDone
	}
	if opts.Flush {
		if _, err := Flush(opts.BaseURL, client); err != nil {
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
	if sampler != nil {
		rep.Predicts += sampler.predicts
		rep.PredictsShed += sampler.predictsShed
		rep.Errors += sampler.errors
		rep.DegradedPredicts += sampler.degraded
		prLat = append(prLat, sampler.predictLat...)
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
	interval := w.opts.PredictInterval
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	for i := 0; ; i++ {
		w.postPredict(log[(i*w.opts.PredictEvery)%len(log)])
		select {
		case <-stop:
			return
		case <-time.After(interval):
		}
	}
}

// run replays the worker's sessions: coalesce events into posts (keeping
// each session's start+access pair whole), pace if open-loop.
func (w *loadWorker) run(start time.Time) {
	if w.wcl != nil {
		w.runWire(start)
		return
	}
	chunk := make([]Event, 0, w.opts.EventsPerPost+1)
	var sent int
	pace := func() {
		if w.opts.RatePerSec <= 0 {
			return
		}
		perWorker := w.opts.RatePerSec / float64(w.opts.Concurrency)
		due := start.Add(time.Duration(float64(sent) / perWorker * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
	}
	flushChunk := func() {
		if len(chunk) == 0 {
			return
		}
		w.postEvents(chunk)
		chunk = chunk[:0]
	}
	for _, ev := range w.sessions {
		pace()
		// Keep the pair atomic: flush first if it would not fit whole.
		if len(chunk)+2 > cap(chunk) {
			flushChunk()
		}
		chunk = append(chunk, Event{Type: "start", Session: ev.SID, User: ev.User, Ts: ev.Ts, Cat: ev.Cat})
		if ev.Access {
			chunk = append(chunk, Event{Type: "access", Session: ev.SID, Ts: ev.Ts + 30})
		}
		if len(chunk) >= w.opts.EventsPerPost {
			flushChunk()
		}
		sent++
	}
	flushChunk()
}

// runWire is run's binary-transport twin: the same chunking rules (pair
// atomicity, EventsPerPost, pacing), but events encode straight into a
// reused wire batch buffer instead of a JSON slice.
func (w *loadWorker) runWire(start time.Time) {
	var count, starts, sent int
	buf := w.wireBuf[:0]
	pace := func() {
		if w.opts.RatePerSec <= 0 {
			return
		}
		perWorker := w.opts.RatePerSec / float64(w.opts.Concurrency)
		due := start.Add(time.Duration(float64(sent) / perWorker * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
	}
	flushChunk := func() {
		if count == 0 {
			return
		}
		w.postEventsWire(count, starts, buf)
		buf, count, starts = buf[:0], 0, 0
	}
	for _, ev := range w.sessions {
		pace()
		// Keep the pair atomic: flush first if it would not fit whole.
		if count+2 > w.opts.EventsPerPost+1 {
			flushChunk()
		}
		buf = wire.AppendStart(buf, ev.User, ev.Ts, ev.SID, ev.Cat)
		count++
		starts++
		if ev.Access {
			buf = wire.AppendAccess(buf, ev.User, ev.Ts+30, ev.SID)
			count++
		}
		if count >= w.opts.EventsPerPost {
			flushChunk()
		}
		sent++
	}
	flushChunk()
	w.wireBuf = buf
}

func (w *loadWorker) postEvents(evs []Event) {
	starts := 0
	for _, ev := range evs {
		if ev.Type == "start" {
			starts++
		}
	}
	body, _ := json.Marshal(evs)
	backoff := w.opts.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	// Retry in place: the same batch is re-sent until it is accepted, shed,
	// or the budget runs out. Because the worker does not advance past a
	// failed batch, a user's events still reach the server in timestamp
	// order even when some posts ride out a failover window.
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		resp, err := w.client.Post(w.opts.BaseURL+"/event", "application/json", bytes.NewReader(body))
		lat := float64(time.Since(t0).Nanoseconds()) / 1e6
		w.posts++
		retryable := false
		if err != nil {
			retryable = true
		} else {
			w.eventLat = append(w.eventLat, lat)
			switch {
			case resp.StatusCode == http.StatusAccepted:
				resp.Body.Close()
				w.events += len(evs)
				w.sessionsOK += starts
				return
			case resp.StatusCode == http.StatusTooManyRequests:
				resp.Body.Close()
				w.shed += len(evs)
				return
			default:
				retryable = resp.StatusCode >= 500
				resp.Body.Close()
			}
		}
		if !retryable || attempt >= w.opts.RetryFailed {
			w.errors++
			return
		}
		w.retries++
		time.Sleep(backoff)
	}
}

// postEventsWire is postEvents over the binary transport, with the same
// retry contract: transport errors and Error/Draining acks are retryable
// in place (order preserved), shed batches are not. SendEvents itself
// never retries — delivery after a transport error is unknown, and the
// double-apply rule says only this layer, which owns the batch, decides.
func (w *loadWorker) postEventsWire(count, starts int, events []byte) {
	backoff := w.opts.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		ack, err := w.wcl.SendEvents(w.lane, count, events)
		lat := float64(time.Since(t0).Nanoseconds()) / 1e6
		w.posts++
		retryable := false
		if err != nil {
			retryable = true
		} else {
			w.eventLat = append(w.eventLat, lat)
			switch ack.Status {
			case wire.StatusOK:
				w.events += count
				w.sessionsOK += starts
				return
			case wire.StatusShed:
				w.shed += count
				return
			default:
				retryable = ack.Status == wire.StatusError || ack.Status == wire.StatusDraining
			}
		}
		if !retryable || attempt >= w.opts.RetryFailed {
			w.errors++
			return
		}
		w.retries++
		time.Sleep(backoff)
	}
}

func (w *loadWorker) postPredict(ev ReplayEvent) {
	if w.wcl != nil {
		w.postPredictWire(ev)
		return
	}
	body, _ := json.Marshal(PredictIn{User: ev.User, Ts: ev.Ts, Cat: ev.Cat})
	t0 := time.Now()
	resp, err := w.client.Post(w.opts.BaseURL+"/predict", "application/json", bytes.NewReader(body))
	lat := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		w.errors++
		return
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		w.predicts++
		w.predictLat = append(w.predictLat, lat)
		var out PredictOut
		if json.NewDecoder(resp.Body).Decode(&out) == nil && out.Degraded {
			w.degraded++
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		w.predictsShed++
	default:
		w.errors++
	}
	resp.Body.Close()
}

// postPredictWire samples one predict over the binary transport. Like the
// HTTP sampler it makes a single attempt per sample — a failed sample is
// an error count, not a retry loop distorting the latency histogram.
func (w *loadWorker) postPredictWire(ev ReplayEvent) {
	payload := wire.AppendPredict(w.wireBuf[:0], ev.User, ev.Ts, ev.Cat)
	w.wireBuf = payload
	t0 := time.Now()
	pr, err := w.wcl.SendPredict(w.lane, payload, 0)
	lat := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		w.errors++
		return
	}
	switch pr.Status {
	case wire.StatusOK:
		w.predicts++
		w.predictLat = append(w.predictLat, lat)
		if pr.Degraded {
			w.degraded++
		}
	case wire.StatusShed:
		w.predictsShed++
	default:
		w.errors++
	}
}

// summarize sorts latencies and extracts the histogram quantiles using the
// explicit nearest-rank definition: Q(p) is the smallest sample such that at
// least p·n samples are <= it, i.e. the sorted sample at index ceil(p·n)−1.
// (The previous rounding form, int(p·n+0.5)−1, sat one rank low whenever the
// fractional part of p·n was in (0, 0.5) — e.g. P90 of 24 samples read rank
// 21 instead of 22 — which systematically flattered tail latencies.)
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

// Flush POSTs /flush and returns the server's completed update count.
func Flush(baseURL string, client *http.Client) (updatesRun int64, err error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Post(baseURL+"/flush", "application/json", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("flush: HTTP %d", resp.StatusCode)
	}
	var out struct {
		UpdatesRun int64 `json:"updates_run"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.UpdatesRun, nil
}

// Digest GETs /digest and returns the server's resident-state digest.
func Digest(baseURL string, client *http.Client) (keys int, digest string, err error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(baseURL + "/digest")
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("digest: HTTP %d", resp.StatusCode)
	}
	var out struct {
		Keys   int    `json:"keys"`
		Digest string `json:"digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, "", err
	}
	return out.Keys, out.Digest, nil
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
