package loadgen_test

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/wire"
)

// answer is one scripted reply of the contract peer, spelled once for
// both transports.
type answer int

const (
	ok          answer = iota // 202 event / 200 predict; StatusOK
	okDegraded                // 200 predict with degraded set; StatusOK + degraded flag
	shed                      // 429; StatusShed
	unavailable               // 503; StatusDraining
	serverError               // 500; StatusError
	badRequest                // 400; StatusBadRequest
	drop                      // the connection closes with no reply
)

func (a answer) httpStatus(okStatus int) int {
	return map[answer]int{
		ok: okStatus, okDegraded: okStatus, shed: http.StatusTooManyRequests,
		unavailable: http.StatusServiceUnavailable, serverError: http.StatusInternalServerError,
		badRequest: http.StatusBadRequest,
	}[a]
}

func (a answer) wireStatus() byte {
	return map[answer]byte{
		ok: wire.StatusOK, okDegraded: wire.StatusOK, shed: wire.StatusShed,
		unavailable: wire.StatusDraining, serverError: wire.StatusError,
		badRequest: wire.StatusBadRequest,
	}[a]
}

// peer is a scripted server: it answers event posts and predicts from
// their scripts in order (ok once a script runs out) and records the
// event count of every post it saw and the predicts it was asked.
type peer struct {
	mu       sync.Mutex
	events   []answer
	predicts []answer
	posts    []int // events per post, in arrival order
	asked    int   // predict requests
}

func (p *peer) nextEvent(n int) answer {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.posts = append(p.posts, n)
	return pop(&p.events)
}

func (p *peer) nextPredict() answer {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.asked++
	return pop(&p.predicts)
}

func pop(script *[]answer) answer {
	if len(*script) == 0 {
		return ok
	}
	a := (*script)[0]
	*script = (*script)[1:]
	return a
}

// serveHTTP starts p behind an httptest server and returns its URL.
func serveHTTP(t *testing.T, p *peer) string {
	hangUp := func(w http.ResponseWriter) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/event", func(w http.ResponseWriter, r *http.Request) {
		var evs []json.RawMessage
		if err := json.NewDecoder(r.Body).Decode(&evs); err != nil {
			t.Errorf("event body: %v", err)
		}
		a := p.nextEvent(len(evs))
		if a == drop {
			hangUp(w)
			return
		}
		w.WriteHeader(a.httpStatus(http.StatusAccepted))
	})
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		a := p.nextPredict()
		if a == drop {
			hangUp(w)
			return
		}
		w.WriteHeader(a.httpStatus(http.StatusOK))
		json.NewEncoder(w).Encode(map[string]bool{"degraded": a == okDegraded})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// serveWire starts p behind a wire listener and returns its address.
func serveWire(t *testing.T, p *peer) string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		l.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				servePeerConn(p, conn)
			}()
		}
	}()
	return l.Addr().String()
}

func servePeerConn(p *peer, conn net.Conn) {
	br := bufio.NewReader(conn)
	fw := wire.NewWriter(bufio.NewWriter(conn))
	if wire.AcceptHello(br, fw) != nil {
		return
	}
	for {
		typ, payload, err := wire.ReadFrame(br, nil)
		if err != nil || len(payload) < 8 {
			return
		}
		id := binary.LittleEndian.Uint64(payload)
		var a answer
		switch typ {
		case wire.FEvents:
			n, _ := binary.Uvarint(payload[8:])
			if a = p.nextEvent(int(n)); a != drop {
				err = fw.WriteAck(id, a.wireStatus(), 0, "")
			}
		case wire.FPredict:
			if a = p.nextPredict(); a != drop {
				err = fw.WritePredictReply(id, wire.PredictReply{Status: a.wireStatus(), Degraded: a == okDegraded})
			}
		default:
			return
		}
		if a == drop || err != nil || fw.Flush() != nil {
			return
		}
	}
}

// TestRunLoadContract pins the load client's reply handling on both
// transports against a scripted peer: which replies are resent in place,
// which are final, when a latency sample is taken, how predicts are
// counted, and how a log is cut into posts.
func TestRunLoadContract(t *testing.T) {
	one := []loadgen.ReplayEvent{{SID: "s0", User: 1, Ts: 100, Cat: []int{0, 0}, Access: true}}
	five := []loadgen.ReplayEvent{
		{SID: "s0", User: 1, Ts: 100, Cat: []int{0, 0}, Access: true},
		{SID: "s1", User: 1, Ts: 200, Cat: []int{0, 0}},
		{SID: "s2", User: 1, Ts: 300, Cat: []int{0, 0}, Access: true},
		{SID: "s3", User: 1, Ts: 400, Cat: []int{0, 0}, Access: true},
		{SID: "s4", User: 1, Ts: 500, Cat: []int{0, 0}},
	}
	cases := []struct {
		name          string
		log           []loadgen.ReplayEvent
		events        []answer
		predicts      []answer
		retry         int
		eventsPerPost int
		predict       bool
		want          loadgen.LoadReport // counters only; latencies by count
		wantPosts     []int
		wantAsked     int
	}{
		{
			name: "5xx then accepted", log: one, retry: 2,
			events:    []answer{serverError, unavailable, ok},
			want:      loadgen.LoadReport{Sessions: 1, SessionsAccepted: 1, Events: 2, Posts: 3, EventsPerPostMean: 2.0 / 3, Retries: 2, EventLatency: loadgen.LatencyStats{Count: 3}},
			wantPosts: []int{2, 2, 2},
		},
		{
			name: "retry budget spent", log: one, retry: 1,
			events:    []answer{serverError, serverError, ok},
			want:      loadgen.LoadReport{Sessions: 1, Posts: 2, Retries: 1, Errors: 1, EventLatency: loadgen.LatencyStats{Count: 2}},
			wantPosts: []int{2, 2},
		},
		{
			name: "shed is never resent", log: one, retry: 5,
			events:    []answer{shed},
			want:      loadgen.LoadReport{Sessions: 1, Posts: 1, Shed: 2, EventLatency: loadgen.LatencyStats{Count: 1}},
			wantPosts: []int{2},
		},
		{
			name: "bad request is not resent", log: one, retry: 5,
			events:    []answer{badRequest},
			want:      loadgen.LoadReport{Sessions: 1, Posts: 1, Errors: 1, EventLatency: loadgen.LatencyStats{Count: 1}},
			wantPosts: []int{2},
		},
		{
			name: "dropped connection is resent without a sample", log: one, retry: 1,
			events:    []answer{drop, ok},
			want:      loadgen.LoadReport{Sessions: 1, SessionsAccepted: 1, Events: 2, Posts: 2, EventsPerPostMean: 1, Retries: 1, EventLatency: loadgen.LatencyStats{Count: 1}},
			wantPosts: []int{2, 2},
		},
		{
			name: "degraded predict", log: one, predict: true,
			predicts:  []answer{okDegraded},
			want:      loadgen.LoadReport{Sessions: 1, SessionsAccepted: 1, Events: 2, Posts: 1, EventsPerPostMean: 2, Predicts: 1, DegradedPredicts: 1, EventLatency: loadgen.LatencyStats{Count: 1}, PredictLatency: loadgen.LatencyStats{Count: 1}},
			wantPosts: []int{2}, wantAsked: 1,
		},
		{
			name: "shed predict", log: one, predict: true,
			predicts:  []answer{shed},
			want:      loadgen.LoadReport{Sessions: 1, SessionsAccepted: 1, Events: 2, Posts: 1, EventsPerPostMean: 2, PredictsShed: 1, EventLatency: loadgen.LatencyStats{Count: 1}},
			wantPosts: []int{2}, wantAsked: 1,
		},
		{
			name: "failed predict", log: one, predict: true, retry: 3,
			predicts:  []answer{serverError},
			want:      loadgen.LoadReport{Sessions: 1, SessionsAccepted: 1, Events: 2, Posts: 1, EventsPerPostMean: 2, Errors: 1, EventLatency: loadgen.LatencyStats{Count: 1}},
			wantPosts: []int{2}, wantAsked: 1,
		},
		{
			// A session's start and access ride one post, so a chunk of 3
			// grows to 4 rather than split s3's pair.
			name: "chunking", log: five, eventsPerPost: 3,
			want:      loadgen.LoadReport{Sessions: 5, SessionsAccepted: 5, Events: 8, Posts: 3, EventsPerPostMean: 8.0 / 3, EventLatency: loadgen.LatencyStats{Count: 3}},
			wantPosts: []int{3, 4, 1},
		},
	}
	for _, transport := range []string{"http", "wire"} {
		for _, c := range cases {
			t.Run(transport+"/"+c.name, func(t *testing.T) {
				p := &peer{events: c.events, predicts: c.predicts}
				opts := loadgen.LoadOptions{
					Concurrency:   1,
					EventsPerPost: c.eventsPerPost,
					RetryFailed:   c.retry,
					RetryBackoff:  time.Millisecond,
				}
				if c.predict {
					// One sample: the sampler posts once, then waits out an
					// interval longer than the replay.
					opts.PredictEvery, opts.PredictInterval = 1, time.Hour
				}
				if transport == "http" {
					opts.BaseURL = serveHTTP(t, p)
				} else {
					opts.WireAddr = serveWire(t, p)
				}
				rep, err := loadgen.RunLoad(opts, c.log)
				if err != nil {
					t.Fatal(err)
				}
				got := *rep
				got.WallMs, got.SessionsPerSec = 0, 0
				got.EventLatency = loadgen.LatencyStats{Count: rep.EventLatency.Count}
				got.PredictLatency = loadgen.LatencyStats{Count: rep.PredictLatency.Count}
				if got != c.want {
					t.Errorf("report\n got %+v\nwant %+v", got, c.want)
				}
				p.mu.Lock()
				defer p.mu.Unlock()
				if len(p.posts) != len(c.wantPosts) {
					t.Fatalf("peer saw posts %v, want %v", p.posts, c.wantPosts)
				}
				for i := range p.posts {
					if p.posts[i] != c.wantPosts[i] {
						t.Fatalf("peer saw posts %v, want %v", p.posts, c.wantPosts)
					}
				}
				if p.asked != c.wantAsked {
					t.Errorf("peer saw %d predicts, want %d", p.asked, c.wantAsked)
				}
			})
		}
	}
}
