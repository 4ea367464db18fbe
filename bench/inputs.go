package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/synth"
	"repro/internal/wire"
)

// session is one row of the replay log in a compact form (the cohort is
// millions of rows; the dataset's own structs cost several times this).
type session struct {
	ts     int64
	user   int32
	idx    int32 // the user's session ordinal, for the session id
	cat    [2]uint8
	access bool
}

func (s session) cats(dst []int) []int { return append(dst[:0], int(s.cat[0]), int(s.cat[1])) }

func (s session) sid(dst []byte) []byte {
	dst = append(dst[:0], 'u')
	dst = strconv.AppendInt(dst, int64(s.user), 10)
	dst = append(dst, '-', 's')
	return strconv.AppendInt(dst, int64(s.idx), 10)
}

// genChunk bounds how many users one synth call materialises, so the
// generator's transient memory stays small beside the program's.
const genChunk = 2048

// generateLog builds the timestamp-ordered MobileTab replay log of `users`
// users from seed. The same seed gives the same log.
func generateLog(users int, seed uint64) cohort {
	log := make([]session, 0, users*75)
	for base := 0; base < users; base += genChunk {
		cfg := synth.DefaultMobileTab()
		cfg.Users = min(genChunk, users-base)
		cfg.Seed = seed*1_000_003 + uint64(base/genChunk)
		for _, u := range synth.GenerateMobileTab(cfg).Users {
			for i, s := range u.Sessions {
				log = append(log, session{
					ts: s.Timestamp, user: int32(base + u.ID), idx: int32(i),
					cat: [2]uint8{uint8(s.Cat[0]), uint8(s.Cat[1])}, access: s.Access,
				})
			}
		}
	}
	sort.Slice(log, func(i, j int) bool {
		if log[i].ts != log[j].ts {
			return log[i].ts < log[j].ts
		}
		return log[i].user < log[j].user
	})
	return cohort{log}
}

// cohort is the generated log, replayed in cycles: logical session i is
// log[i%len] shifted by i/len observation windows, so a run can be longer
// than the cohort's 30 days without generating (and holding) more users.
// Every cycle continues each user's history where the last one ended.
type cohort struct {
	log []session
}

// cycleSpan is the cohort's observation window: every generated timestamp
// lies inside one, so consecutive cycles stay in timestamp order.
const cycleSpan = dataset.ObservationDays * dataset.Day

// cycleIdx separates the session ordinals of consecutive cycles.
const cycleIdx = 1 << 20

// slice materialises logical sessions [lo, hi).
func (c cohort) slice(lo, hi int) []session {
	out := make([]session, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s, cycle := c.log[i%len(c.log)], i/len(c.log)
		s.ts += int64(cycle) * cycleSpan
		s.idx += int32(cycle) * cycleIdx
		out = append(out, s)
	}
	return out
}

// distinctUsers counts the users of logical sessions [0, n).
func (c cohort) distinctUsers(n int) int {
	seen := map[int32]struct{}{}
	for _, s := range c.log[:min(n, len(c.log))] {
		seen[s.user] = struct{}{}
	}
	return len(seen)
}

// must panics on an error only a bug can produce: a failed write into a
// bytes.Buffer, or plain structs that do not marshal.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// post is one pre-encoded request: the exact bytes written to the socket.
type post struct {
	frame    []byte
	sessions int
	events   int
	slot     int           // wire: the user-disjoint slot this post rides (also its request id)
	first    int           // position in the segment of the post's first session
	seq      int           // the post's number within its segment, for span keys
	due      time.Duration // open loop: scheduled send time from segment start
}

// segmentLoad is everything a segment sends, built before its clock starts.
type segmentLoad struct {
	conns      [][]post // per event connection, in send order
	predicts   [][]byte // pre-encoded predict requests
	sessions   int
	events     int
	bytes      int64 // request bytes of all event posts
	predictDue func(i int) time.Duration
}

// route pins a user to an event connection and, within it, to a slot.
func route(user int32, nConns int) (conn, slot int) {
	h := serving.UserKeyHash(int(user))
	return int(h % uint32(nConns)), int(h / uint32(nConns) % slotsPerConn)
}

// encodeSegment pre-encodes sess for spec over nConns event connections.
// Chunking follows the program's own load generator: a session's start and
// access ride the same post, and a post closes at EventsPerPost events.
func encodeSegment(spec workloadSpec, sess []session, nConns int) *segmentLoad {
	load := &segmentLoad{conns: make([][]post, nConns), sessions: len(sess)}
	if spec.HTTP {
		encodeHTTP(spec, sess, load)
	} else {
		encodeWire(spec, sess, load)
	}
	for _, c := range load.conns {
		for _, p := range c {
			load.events += p.events
			load.bytes += int64(len(p.frame))
		}
	}
	if spec.Open {
		// A post is due when its first session is, at the frozen rate.
		for _, c := range load.conns {
			for i := range c {
				c[i].due = time.Duration(float64(c[i].first) / spec.SessionRate * float64(time.Second))
			}
		}
		n := int(float64(len(sess)) / spec.SessionRate * spec.PredictRate)
		load.predicts = encodePredicts(spec, sess, n)
		load.predictDue = func(i int) time.Duration {
			return time.Duration(float64(i) / spec.PredictRate * float64(time.Second))
		}
	} else {
		load.predicts = encodePredicts(spec, sess, min(predictRing, len(sess)))
	}
	return load
}

type wireBuilder struct {
	ev            []byte
	count, starts int
	first         int
	conn, slotIdx int
}

func encodeWire(spec workloadSpec, sess []session, load *segmentLoad) {
	nConns := len(load.conns)
	builders := make([]wireBuilder, nConns*slotsPerConn)
	for i := range builders {
		builders[i].conn, builders[i].slotIdx = i/slotsPerConn, i%slotsPerConn
	}
	var frame bytes.Buffer
	fw := wire.NewWriter(bufio.NewWriter(&frame))
	seq := 0
	flush := func(b *wireBuilder) {
		if b.count == 0 {
			return
		}
		frame.Reset()
		must(fw.WriteEvents(uint64(b.slotIdx), b.count, b.ev))
		must(fw.Flush())
		load.conns[b.conn] = append(load.conns[b.conn], post{
			frame: append([]byte(nil), frame.Bytes()...), sessions: b.starts, events: b.count, slot: b.slotIdx, first: b.first, seq: seq,
		})
		seq++
		b.ev, b.count, b.starts = b.ev[:0], 0, 0
	}
	var sid []byte
	var cat []int
	for i, s := range sess {
		c, slot := route(s.user, nConns)
		b := &builders[c*slotsPerConn+slot]
		if b.count+2 > spec.EventsPerPost+1 {
			flush(b)
		}
		if b.count == 0 {
			b.first = i
		}
		sid, cat = s.sid(sid), s.cats(cat)
		b.ev = wire.AppendStart(b.ev, int(s.user), s.ts, string(sid), cat)
		b.count++
		b.starts++
		if s.access {
			b.ev = wire.AppendAccess(b.ev, int(s.user), s.ts+30, string(sid))
			b.count++
		}
		if b.count >= spec.EventsPerPost {
			flush(b)
		}
	}
	for i := range builders {
		flush(&builders[i])
	}
}

func httpRequest(path string, seq int, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s: %d\r\n\r\n",
		path, len(body), benchReqHeader, seq)
	b.Write(body)
	return b.Bytes()
}

func encodeHTTP(spec workloadSpec, sess []session, load *segmentLoad) {
	nConns := len(load.conns)
	chunks := make([][]server.Event, nConns)
	starts, first := make([]int, nConns), make([]int, nConns)
	seq := 0
	flush := func(c int) {
		if len(chunks[c]) == 0 {
			return
		}
		body, err := json.Marshal(chunks[c])
		must(err)
		load.conns[c] = append(load.conns[c], post{
			frame: httpRequest("/event", seq, body), sessions: starts[c], events: len(chunks[c]), first: first[c], seq: seq,
		})
		seq++
		chunks[c], starts[c] = chunks[c][:0], 0
	}
	var sid []byte
	for i, s := range sess {
		c, _ := route(s.user, nConns)
		if len(chunks[c])+2 > spec.EventsPerPost+1 {
			flush(c)
		}
		if len(chunks[c]) == 0 {
			first[c] = i
		}
		sid = s.sid(sid)
		chunks[c] = append(chunks[c], server.Event{Type: "start", Session: string(sid), User: int(s.user), Ts: s.ts, Cat: s.cats(nil)})
		starts[c]++
		if s.access {
			chunks[c] = append(chunks[c], server.Event{Type: "access", Session: string(sid), Ts: s.ts + 30})
		}
		if len(chunks[c]) >= spec.EventsPerPost {
			flush(c)
		}
	}
	for c := range chunks {
		flush(c)
	}
}

// encodePredicts builds n predict requests for users striding through sess.
func encodePredicts(spec workloadSpec, sess []session, n int) [][]byte {
	if len(sess) == 0 || n <= 0 {
		return nil
	}
	out := make([][]byte, n)
	stride := max(1, len(sess)/n)
	var frame bytes.Buffer
	fw := wire.NewWriter(bufio.NewWriter(&frame))
	var cat []int
	var payload []byte
	for i := range out {
		s := sess[(i*stride)%len(sess)]
		cat = s.cats(cat)
		if spec.HTTP {
			body, err := json.Marshal(server.PredictIn{User: int(s.user), Ts: s.ts, Cat: cat})
			must(err)
			out[i] = httpRequest("/predict", i, body)
			continue
		}
		payload = wire.AppendPredict(payload[:0], int(s.user), s.ts, cat)
		frame.Reset()
		must(fw.WriteRequest(wire.FPredict, uint64(i), payload))
		must(fw.Flush())
		out[i] = append([]byte(nil), frame.Bytes()...)
	}
	return out
}

// streamHash is the SHA-256 of the workload's traffic in a form that does
// not depend on how many connections the generator has: every event of
// sess in log order, encoded by the same wire.Append*/json.Marshal the
// posts are built from.
func streamHash(spec workloadSpec, sess []session) string {
	h := sha256.New()
	var buf, sid []byte
	var cat []int
	for _, s := range sess {
		sid, cat = s.sid(sid), s.cats(cat)
		if spec.HTTP {
			ev := []server.Event{{Type: "start", Session: string(sid), User: int(s.user), Ts: s.ts, Cat: cat}}
			if s.access {
				ev = append(ev, server.Event{Type: "access", Session: string(sid), Ts: s.ts + 30})
			}
			body, err := json.Marshal(ev)
			must(err)
			h.Write(body)
			body, err = json.Marshal(server.PredictIn{User: int(s.user), Ts: s.ts, Cat: cat})
			must(err)
			h.Write(body)
			continue
		}
		buf = wire.AppendStart(buf[:0], int(s.user), s.ts, string(sid), cat)
		if s.access {
			buf = wire.AppendAccess(buf, int(s.user), s.ts+30, string(sid))
		}
		buf = wire.AppendPredict(buf, int(s.user), s.ts, cat)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

//go:embed workloads.lock
var lockFile string

// lockedSeeds are the seeds whose traffic is pinned in workloads.lock.
var lockedSeeds = []uint64{1, 2}

// lockedHash returns the pinned hash for (workload, seed), if any.
func lockedHash(workload string, seed uint64) (string, bool) {
	for _, line := range strings.Split(lockFile, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == workload && f[1] == strconv.FormatUint(seed, 10) {
			return f[2], true
		}
	}
	return "", false
}

// lockedRange is the part of the traffic the lock covers: the warm-up and
// the first timed segment, which every run length includes.
func lockedRange(spec workloadSpec, c cohort) []session {
	return c.slice(0, spec.WarmSessions+spec.SegSessions)
}

// checkDrift fails with workload_drift when a pinned seed no longer
// produces the pinned traffic.
func checkDrift(spec workloadSpec, seed uint64, c cohort) error {
	want, ok := lockedHash(spec.Name, seed)
	if !ok {
		return nil
	}
	if got := streamHash(spec, lockedRange(spec, c)); got != want {
		return fmt.Errorf("workload_drift: %s seed %d encodes to %s, workloads.lock pins %s (synth or the wire/JSON encoders changed the traffic; rerun with -relock only if that is intended)",
			spec.Name, seed, got, want)
	}
	return nil
}
