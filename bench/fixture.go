package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/statestore"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// A fixture is one complete instance of the program under test, built
// from exported constructors and driven through its listeners: the servers
// (and router), their stores, and the generator connections. Listeners are
// opened with net.Listen before Serve, so no readiness poll is needed.

type replica struct {
	srv     *server.Server
	raw     serving.Store // the store itself, for stats and digests
	httpSrv *http.Server
	url     string
	wire    string
}

type fixture struct {
	spec     workloadSpec
	model    *core.Model
	replicas []*replica

	router     *cluster.Router
	routerHTTP *http.Server

	controlURL string // /flush goes here (the server, or the router)
	wireAddr   string // data plane, binary
	httpAddr   string // data plane, HTTP

	primary       *statestore.Store // storeWAL/storeVolatile: the server's store
	follower      *replication.Follower
	followerStore *statestore.Store
	dir           string

	client *http.Client
	gen    *generator
	tr     *tracer
}

func buildModel(spec workloadSpec) *core.Model {
	cfg := core.DefaultConfig()
	cfg.HiddenDim = spec.Dim
	// Serving cost does not depend on the weights' values, so the model is
	// untrained (as in the repo's own server bench).
	return core.New(synth.MobileTabSchema(), cfg)
}

// listen opens a loopback listener; a traced fixture counts the calls on
// its connections.
func (f *fixture) listen(wirePlane bool) (net.Listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil || f.tr == nil {
		return l, err
	}
	if wirePlane {
		return countedListener{l, &f.tr.wireIO}, nil
	}
	return countedListener{l, &f.tr.httpIO}, nil
}

// laneDepth makes each finalisation queue deep enough to hold its share of
// a whole segment. Event posts are acknowledged at ingest, not at
// finalisation, so a closed loop on acks does not bound the backlog; a
// queue that can never fill means admission control never sheds and a run
// has no failed operations by construction. The flush that ends a segment
// drains it. A lane's share is 1/(lanes*servers) of the sessions; the
// factor leaves room for hash skew.
func laneDepth(spec workloadSpec) int {
	share := max(spec.SegSessions, spec.WarmSessions) / (lanes * max(1, spec.Replicas))
	return max(1024, share*3/2)
}

// newFixture builds the workload's program configuration. dir is where a
// durable store may write; tr, when non-nil, installs the decorators.
func newFixture(spec workloadSpec, dir string, preload bool, tr *tracer) (f *fixture, err error) {
	f = &fixture{spec: spec, model: buildModel(spec), dir: dir, tr: tr,
		client: &http.Client{Timeout: 2 * time.Minute}}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()

	nServers := max(1, spec.Replicas)
	for i := 0; i < nServers; i++ {
		if err := f.addReplica(i); err != nil {
			return nil, err
		}
	}
	if preload && spec.Preload > 0 {
		f.preload()
	}

	f.controlURL, f.wireAddr = f.replicas[0].url, f.replicas[0].wire
	if spec.Replicas > 0 {
		if err := f.addRouter(); err != nil {
			return nil, err
		}
	}
	f.httpAddr = f.controlURL[len("http://"):]

	if spec.Store == storeWAL {
		f.followerStore, err = statestore.Open(statestore.Options{
			Dir: filepath.Join(dir, "follower"), Codec: statestore.CodecF32, SnapshotEvery: spec.SnapshotEvery,
		})
		if err != nil {
			return nil, fmt.Errorf("opening follower store: %w", err)
		}
		f.follower = replication.NewFollower(f.followerStore, f.replicas[0].url)
		f.follower.Start()
	}

	f.gen, err = newGenerator(spec, f.wireAddr, f.httpAddr, tr)
	return f, err
}

func (f *fixture) addReplica(i int) error {
	spec := f.spec
	var raw serving.Store
	var state *statestore.Store
	switch spec.Store {
	case storeSharded:
		raw = serving.NewShardedKVStore(16)
	case storeVolatile:
		st, err := statestore.Open(statestore.Options{})
		if err != nil {
			return err
		}
		raw, state = st, st
	case storeWAL:
		st, err := statestore.Open(statestore.Options{
			Dir: filepath.Join(f.dir, "primary"), Codec: statestore.CodecF32,
			SnapshotEvery: spec.SnapshotEvery,
			// The follower must never fall off the tail ring mid-run: a
			// re-bootstrap would be measured as replication cost.
			TailBuffer: 1 << 18,
		})
		if err != nil {
			return fmt.Errorf("opening primary store: %w", err)
		}
		raw, state = st, st
	}
	if state != nil {
		f.primary = state
	}
	store := raw
	if f.tr != nil {
		store = timedStore{Store: raw, t: f.tr}
	}
	srv := server.New(server.Options{
		Model: f.model, Store: store, State: state, Threshold: 0.5, Precision: spec.Tier,
		Lanes: lanes, MaxBatch: maxBatch, MaxWait: maxWait, LaneDepth: laneDepth(spec),
	})
	r := &replica{srv: srv, raw: raw}
	f.replicas = append(f.replicas, r)

	hl, err := f.listen(false)
	if err != nil {
		return err
	}
	handler := srv.Handler()
	if f.tr != nil {
		handler = f.tr.middleware(handler)
	}
	r.httpSrv = &http.Server{Handler: handler}
	go r.httpSrv.Serve(hl) // returns ErrServerClosed at Shutdown
	r.url = "http://" + hl.Addr().String()

	wl, err := f.listen(true)
	if err != nil {
		return err
	}
	go srv.ServeWire(wl) // returns nil at Shutdown
	r.wire = wl.Addr().String()
	return nil
}

func (f *fixture) addRouter() error {
	urls := make([]string, len(f.replicas))
	wires := map[string]string{}
	for i, r := range f.replicas {
		urls[i] = r.url
		wires[r.url] = r.wire
	}
	router, err := cluster.New(cluster.Options{Replicas: urls, WireAddrs: wires})
	if err != nil {
		return err
	}
	f.router = router
	hl, err := f.listen(false)
	if err != nil {
		return err
	}
	f.routerHTTP = &http.Server{Handler: router}
	go f.routerHTTP.Serve(hl)
	f.controlURL = "http://" + hl.Addr().String()
	wl, err := f.listen(true)
	if err != nil {
		return err
	}
	go router.ServeWire(wl)
	f.wireAddr = wl.Addr().String()
	return nil
}

// preloadTS predates every cohort timestamp, so a preloaded state is
// always "older" than the traffic that updates it.
const preloadTS = synth.DefaultStart - 86400

// preload writes spec.Preload synthetic states: the read-heavy working
// set that predict traffic then looks up.
func (f *fixture) preload() {
	rng := tensor.NewRNG(7)
	h := tensor.NewVector(f.model.StateSize())
	var enc []byte
	store := f.replicas[0].raw
	for u := 0; u < f.spec.Preload; u++ {
		for i := range h {
			h[i] = 2*rng.Float64() - 1
		}
		enc = serving.EncodeHiddenInto(enc, h, preloadTS)
		store.Put(serving.HiddenKey(u), enc)
	}
}

// flush POSTs /flush — the drain barrier that ends every segment — and
// returns the cumulative finalised-session count.
func (f *fixture) flush() (updatesRun int64, err error) {
	resp, err := f.client.Post(f.controlURL+"/flush", "application/json", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) // best effort: only decorates the error
		return 0, fmt.Errorf("flush: HTTP %d %s", resp.StatusCode, body)
	}
	var out struct {
		UpdatesRun int64 `json:"updates_run"`
		Pending    int64 `json:"pending"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	if out.Pending != 0 {
		return 0, fmt.Errorf("flush left %d sessions pending", out.Pending)
	}
	return out.UpdatesRun, nil
}

// stats sums the replicas' counters.
func (f *fixture) stats() server.Statz {
	var sum server.Statz
	for _, r := range f.replicas {
		st := r.srv.Stats()
		sum.Events += st.Events
		sum.EventsShed += st.EventsShed
		sum.Predicts += st.Predicts
		sum.PredictsShed += st.PredictsShed
		sum.ColdStarts += st.ColdStarts
		sum.DecodeFailures += st.DecodeFailures
		sum.UpdatesRun += st.UpdatesRun
		sum.Batches += st.Batches
		sum.PendingSessions += st.PendingSessions
		sum.Inflight += st.Inflight
		sum.Store.Keys += st.Store.Keys
		sum.Store.Gets += st.Store.Gets
		sum.Store.Puts += st.Store.Puts
		sum.Store.Misses += st.Store.Misses
		sum.Store.BytesStored += st.Store.BytesStored
	}
	return sum
}

// digest combines the replicas' state digests into the digest one store
// holding every state would report.
func (f *fixture) digest() (string, int, error) {
	digests := make([]string, len(f.replicas))
	keys := 0
	for i, r := range f.replicas {
		d, k := serving.StateDigest(r.raw)
		digests[i], keys = d, keys+k
	}
	d, err := serving.CombineDigests(digests...)
	return d, keys, err
}

// storeErr surfaces an I/O error a durable store swallowed on its hot path.
func (f *fixture) storeErr() error {
	for _, st := range []*statestore.Store{f.primary, f.followerStore} {
		if st != nil {
			if err := st.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// awaitFollower blocks until the follower has applied everything the
// primary committed, and returns how long that took.
func (f *fixture) awaitFollower(limit time.Duration) (time.Duration, error) {
	start := time.Now()
	for {
		if f.follower.Status().LastSeq >= f.primary.WALSeq() {
			return time.Since(start), nil
		}
		if time.Since(start) > limit {
			st := f.follower.Status()
			return 0, fmt.Errorf("follower stuck at seq %d of %d (connected=%v err=%q)", st.LastSeq, f.primary.WALSeq(), st.Connected, st.LastErr)
		}
		time.Sleep(time.Millisecond)
	}
}

// close tears the fixture down in dependency order and removes its
// directory. It reports the first error; a nil field was never built.
func (f *fixture) close() error {
	var first error
	note := func(err error) {
		if err != nil && first == nil && !errors.Is(err, http.ErrServerClosed) {
			first = err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.gen != nil {
		f.gen.close()
	}
	if f.follower != nil {
		f.follower.Stop()
	}
	if f.routerHTTP != nil {
		note(f.routerHTTP.Shutdown(ctx))
	}
	if f.router != nil {
		f.router.CloseWire()
	}
	for _, r := range f.replicas {
		if r.httpSrv != nil {
			note(r.httpSrv.Shutdown(ctx))
		}
		note(r.srv.Shutdown(ctx))
	}
	if f.primary != nil {
		note(f.primary.Close())
	}
	if f.followerStore != nil {
		note(f.followerStore.Close())
	}
	f.client.CloseIdleConnections()
	if f.dir != "" {
		note(os.RemoveAll(f.dir))
	}
	return first
}

// referenceDigest replays sess through a sequential in-process
// StreamProcessor on the workload's compute tier: the oracle the
// pre-check compares the served configuration against.
func referenceDigest(spec workloadSpec, sess []session) (string, int, error) {
	store := serving.NewKVStore()
	proc := serving.NewStreamProcessor(buildModel(spec), store)
	if err := proc.SetPrecision(spec.Tier); err != nil {
		return "", 0, err
	}
	var sid []byte
	var cat []int
	for _, s := range sess {
		sid, cat = s.sid(sid), s.cats(cat)
		proc.OnSessionStart(string(sid), int(s.user), s.ts, cat)
		if s.access {
			proc.OnAccess(string(sid), s.ts+30)
		}
	}
	proc.Flush()
	d, k := serving.StateDigest(store)
	return d, k, nil
}
