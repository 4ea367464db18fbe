package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serving"
)

// Tracing for the per-layer run. Spans are recorded from the benchmark's
// own files, around the calls into each layer; nothing inside the program
// is instrumented. Spans stay in memory and are written when the run ends.

// benchReqHeader carries the generator's request number on the HTTP
// plane, so the middleware's span can name the client span that caused it.
const benchReqHeader = "X-Bench-Req"

// span is one timed interval. Parent is the index of the causing span in
// the written file, or -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     string `json:"req,omitempty"`
}

const (
	// maxSpans bounds the trace file; counts and timing samples keep
	// accumulating past it.
	maxSpans = 200_000
	// spanEvery is how many store operations pass between recorded spans
	// (every operation is still timed and counted).
	spanEvery = 16
)

// opTimer accumulates the durations of one decorated operation.
type opTimer struct {
	count   atomic.Int64
	mu      sync.Mutex
	samples []float64 // ns, one in spanEvery
}

func (o *opTimer) add(d time.Duration) (sampled bool) {
	if o.count.Add(1)%spanEvery != 0 {
		return false
	}
	o.mu.Lock()
	o.samples = append(o.samples, float64(d))
	o.mu.Unlock()
	return true
}

func (o *opTimer) sorted() []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return sortedCopy(o.samples)
}

// tracer collects spans and decorator timings while on.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu     sync.Mutex
	spans  []span
	inSitu int

	storeGet, storePut     opTimer
	httpEvent, httpPredict opTimer
	wireIO, httpIO         ioCounter
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// record keeps an in-situ span, up to maxSpans of them.
func (t *tracer) record(name, req string, start, end time.Time) {
	t.mu.Lock()
	if t.inSitu < maxSpans {
		t.inSitu++
		t.spans = append(t.spans, span{Name: name, StartNs: t.since(start), EndNs: t.since(end), Parent: -1, Req: req})
	}
	t.mu.Unlock()
}

// ledgerSpan times fn as one isolation pass; ledger spans are few and
// always kept.
func (t *tracer) ledgerSpan(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: "ledger." + name, StartNs: t.since(start), EndNs: t.since(end), Parent: -1})
	t.mu.Unlock()
	return end.Sub(start)
}

// timedStore decorates the serving.Store seam. With the tracer off it
// forwards without reading the clock.
type timedStore struct {
	serving.Store
	t *tracer
}

func (s timedStore) Get(key string) ([]byte, bool) {
	if !s.t.on.Load() {
		return s.Store.Get(key)
	}
	start := time.Now()
	v, ok := s.Store.Get(key)
	end := time.Now()
	if s.t.storeGet.add(end.Sub(start)) {
		s.t.record("store.get", key, start, end)
	}
	return v, ok
}

func (s timedStore) Put(key string, value []byte) {
	if !s.t.on.Load() {
		s.Store.Put(key, value)
		return
	}
	start := time.Now()
	s.Store.Put(key, value)
	end := time.Now()
	if s.t.storePut.add(end.Sub(start)) {
		s.t.record("store.put", key, start, end)
	}
}

// ioCounter counts the read and write calls the program makes on the
// connections of its listeners: the net.Listener seam. Each call is a
// system call and a scheduler hand-off, which is what a transport costs
// beyond its codec.
type ioCounter struct {
	calls atomic.Int64
	bytes atomic.Int64
}

type countedListener struct {
	net.Listener
	c *ioCounter
}

func (l countedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: conn, c: l.c}, nil
}

type countedConn struct {
	net.Conn
	c *ioCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.calls.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.calls.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

// middleware times the HTTP handler per route, keyed by the generator's
// request header.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var timer *opTimer
		switch r.URL.Path {
		case "/event":
			timer = &t.httpEvent
		case "/predict":
			timer = &t.httpPredict
		}
		if timer == nil || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		timer.add(end.Sub(start))
		t.record("server.http", r.URL.Path+"#"+r.Header.Get(benchReqHeader), start, end)
	})
}

// resolveParents links every server.http span to the client span that
// carries the same request key.
func (t *tracer) resolveParents() {
	clients := map[string]int{}
	for i, s := range t.spans {
		if s.Name == "client.post" || s.Name == "client.predict" {
			clients[s.Req] = i
		}
	}
	for i, s := range t.spans {
		if s.Name == "server.http" {
			if p, ok := clients[s.Req]; ok {
				t.spans[i].Parent = p
			}
		}
	}
}

// spanSummary is the per-name roll-up printed with the layer table.
type spanSummary struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64 // total minus the part covered by child spans
}

func (t *tracer) summarize() []spanSummary {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
			if hi > lo {
				covered[s.Parent] += hi - lo
			}
		}
	}
	byName := map[string]*spanSummary{}
	for i, s := range t.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		d := s.EndNs - s.StartNs
		sum.Count++
		sum.TotalMs += float64(d) / 1e6
		sum.SelfMs += float64(d-covered[i]) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	t.resolveParents()
	spans := t.spans
	t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(map[string]any{"workload": workload, "spans": spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}
