package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func readBenchmarkJSON(t *testing.T) contractFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b contractFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables pins the contract file to the tables the
// program reports from: names, units, directions, bounds, run length.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if b.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, segment sizes were frozen for %d", b.RunSeconds, refSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: %q vs %q", i, b.Workloads[i].Name, w.Name)
		}
		if b.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %s: why differs or is too long", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer", len(b.EndToEnd), len(endToEnd), len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, got, d)
		}
		if !nameRE.MatchString(d.Name) || seen[d.Name] || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end_to_end %s: bad name, duplicate, or bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		seen[d.Name] = true
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, got, d)
		}
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("per_layer %s: bad or duplicate name", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmokeWorkloads runs every workload at about 2000 sessions, traced,
// and requires a correct result that reports exactly the contract's
// metric names on both output forms. No timing is asserted.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(runConfig{
				spec: w.smoke(), seed: 3, segments: 1, rounds: 1, traced: true, outDir: t.TempDir(), smoke: true,
			})
			if errors.Is(err, errRefused) && runtime.GOMAXPROCS(0) < 2 {
				t.Skipf("refused as designed: %v", err)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK {
				t.Fatalf("checks failed: %v", res.Failures)
			}
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				if err := printContractLine(&out, res, traced); err != nil {
					t.Fatal(err)
				}
				var raw map[string]json.RawMessage
				if err := json.Unmarshal(out.Bytes(), &raw); err != nil {
					t.Fatal(err)
				}
				if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
					t.Fatalf("contract line keys: %s", out.String())
				}
				line, err := parseContractLine(out.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics reported, contract has %d", traced, len(line.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := line.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: metric %s missing, mis-united or not a number: %+v", traced, d.Name, m)
					}
				}
				if !line.Correct || line.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d", traced, line.Correct, line.Attempted)
				}
			}
			if _, err := os.Stat(res.TracePath); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestDigestCheckGoesRed corrupts the reference digest: the pre-check must
// fail, and with the true digest it must pass.
func TestDigestCheckGoesRed(t *testing.T) {
	spec := workloads[0].smoke()
	prefix := generateLog(spec.Users, 5).slice(0, spec.WarmSessions)
	nConns, _ := generatorConns(spec)
	load := encodeSegment(spec, prefix, nConns)
	digest, keys, err := referenceDigest(spec, prefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := precheck(spec, t.TempDir(), load, digest, keys); err != nil {
		t.Fatalf("true digest refused: %v", err)
	}
	corrupt := []byte(digest)
	corrupt[0] ^= 1 // '0'..'9','a'..'f' stay hex-ish; any change must be caught
	err = precheck(spec, t.TempDir(), load, string(corrupt), keys)
	if err == nil || !strings.Contains(err.Error(), "digest_mismatch") {
		t.Fatalf("corrupted reference digest accepted: %v", err)
	}
}

// shedEveryThird is a stub wire server that sheds every third event post
// it reads and records, per user, the timestamps of the events it accepts.
type shedEveryThird struct {
	mu       sync.Mutex
	posts    int
	accepted map[int][]int64
}

func (s *shedEveryThird) serve(t *testing.T, c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	fw := wire.NewWriter(bufio.NewWriter(c))
	typ, p, err := wire.ReadFrame(br, nil)
	if err != nil || wire.CheckHello(typ, p) != nil || fw.WriteHello() != nil || fw.Flush() != nil {
		t.Errorf("stub handshake failed: %v", err)
		return
	}
	var er wire.EventReader
	var ev wire.Event
	for {
		typ, p, err := wire.ReadFrame(br, nil)
		if err != nil {
			return // the client closed
		}
		if typ != wire.FEvents || len(p) < 8 {
			t.Errorf("stub: unexpected frame type %d", typ)
			return
		}
		reqID := uint64(p[0]) // slots fit one byte
		s.mu.Lock()
		s.posts++
		shed := s.posts%3 == 0
		n := 0
		if !shed {
			if err := er.Reset(p[8:]); err != nil {
				t.Errorf("stub: %v", err)
			}
			for er.More() {
				if err := er.Next(&ev); err != nil {
					t.Errorf("stub: %v", err)
					break
				}
				s.accepted[ev.User] = append(s.accepted[ev.User], ev.Ts)
				n++
			}
		}
		s.mu.Unlock()
		status := wire.StatusOK
		if shed {
			status = wire.StatusShed
		}
		if fw.WriteAck(reqID, status, n, "") != nil || fw.Flush() != nil {
			return
		}
	}
}

// TestResendOnShedPreservesUserOrder drives the pipelined sender against
// the shedding stub: every session must land, and each user's events must
// land in timestamp order although a third of the posts are refused once.
func TestResendOnShedPreservesUserOrder(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stub := &shedEveryThird{accepted: map[int][]int64{}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		stub.serve(t, c)
	}()

	spec := workloads[0].smoke()
	spec.EventsPerPost = 8
	sess := generateLog(40, 9).slice(0, 2000)
	load := encodeSegment(spec, sess, 1)
	conn, err := dialWire(l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var res connResult
	conn.sendEvents(load.conns[0], time.Now(), false, &res)
	conn.Close()
	<-done

	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.sessions != len(sess) || res.sheds == 0 {
		t.Fatalf("%d of %d sessions accepted after %d sheds", res.sessions, len(sess), res.sheds)
	}
	events := 0
	for user, ts := range stub.accepted {
		events += len(ts)
		for i := 1; i < len(ts); i++ {
			if ts[i] < ts[i-1] {
				t.Fatalf("user %d: event at ts %d landed after ts %d", user, ts[i], ts[i-1])
			}
		}
	}
	if events != load.events {
		t.Fatalf("stub accepted %d events, %d were sent", events, load.events)
	}
}

func TestQuantile(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		name    string
		n       int
		p       float64
		want    float64
		refused bool
	}{
		{"median of one", 1, 0.5, 1, false},
		{"median of ten", 10, 0.5, 5, false},
		{"p95 of 1000", 1000, 0.95, 950, false},
		{"p95 of 200 leaves ten beyond", 200, 0.95, 190, false},
		{"p95 of 199 leaves nine beyond", 199, 0.95, 0, true},
		{"p99 of 1000 leaves ten beyond", 1000, 0.99, 990, false},
		{"p99 of 999", 999, 0.99, 0, true},
		{"p95 of none", 0, 0.95, 0, true},
		{"median of none", 0, 0.5, 0, true},
	}
	for _, c := range cases {
		got, err := quantile(seq(c.n), c.p)
		if (err != nil) != c.refused || (!c.refused && got != c.want) {
			t.Errorf("%s: got %v, %v; want %v refused=%v", c.name, got, err, c.want, c.refused)
		}
	}
	if p, v := highestQuantile(seq(500), 0.5, 0.95, 0.99); p != 0.95 || v != 475 {
		t.Errorf("highest supported quantile of 500 samples = p%v (%v), want p0.95 (475)", p, v)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// which the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v, %v; Python gives 1, 4", q1, q3)
	}
}
