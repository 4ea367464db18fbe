package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/wire"
)

// The benchmark's own load generator. Inside a segment's clock it only
// writes pre-encoded bytes and parses acknowledgements, so the process's
// CPU and allocation figures are the program's, not the generator's.

// shedBackoff is the pause before a shed (429) post is resent in place.
const shedBackoff = 200 * time.Microsecond

// connResult is what one sender goroutine observed during one segment.
type connResult struct {
	posts     int       // event posts written, resends included
	sessions  int       // sessions acknowledged as accepted
	events    int       // events acknowledged as accepted
	sheds     int       // posts answered 429/StatusShed and resent
	ackMs     []float64 // event post round trips
	predicts  int       // predict replies received
	predictMs []float64 // predict round trips
	degraded  int       // predict replies flagged degraded
	predShed  int       // predicts answered 429/StatusShed
	lateMs    []float64 // open loop: send time minus scheduled time
	err       error     // a failure that invalidates the run
}

func (r *connResult) merge(o *connResult) {
	r.posts += o.posts
	r.sessions += o.sessions
	r.events += o.events
	r.sheds += o.sheds
	r.ackMs = append(r.ackMs, o.ackMs...)
	r.predicts += o.predicts
	r.predictMs = append(r.predictMs, o.predictMs...)
	r.degraded += o.degraded
	r.predShed += o.predShed
	r.lateMs = append(r.lateMs, o.lateMs...)
	if r.err == nil {
		r.err = o.err
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// dataConn is one generator connection on either data plane.
type dataConn interface {
	// sendEvents writes posts in order, resending a shed post in place.
	sendEvents(posts []post, start time.Time, open bool, res *connResult)
	// predict performs one predict round trip.
	predict(req []byte) (degraded, shed bool, err error)
	Close() error
}

func dialData(spec workloadSpec, wireAddr, httpAddr string, tr *tracer) (dataConn, error) {
	if spec.HTTP {
		return dialHTTP(httpAddr, tr)
	}
	return dialWire(wireAddr, tr)
}

// clientSpan records a generator-side root span while tracing is on. The
// request key matches the one the HTTP middleware derives from the
// request header, which is how a server.http span finds its parent.
func clientSpan(tr *tracer, name, path string, seq int, start, end time.Time) {
	if tr != nil && tr.on.Load() {
		tr.record(name, path+"#"+strconv.Itoa(seq), start, end)
	}
}

// ---- binary wire plane ----

type wireConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
	tr  *tracer
}

func dialWire(addr string, tr *tracer) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	w := &wireConn{c: c, br: bufio.NewReaderSize(c, 64<<10), tr: tr}
	fw := wire.NewWriter(bufio.NewWriter(c))
	if err := fw.WriteHello(); err != nil {
		c.Close()
		return nil, err
	}
	if err := fw.Flush(); err != nil {
		c.Close()
		return nil, err
	}
	typ, p, err := wire.ReadFrame(w.br, nil)
	if err == nil {
		err = wire.CheckHello(typ, p)
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("wire handshake with %s: %w", addr, err)
	}
	return w, nil
}

func (w *wireConn) Close() error { return w.c.Close() }

// sendEvents pipelines posts with one post in flight per slot. Slots hold
// disjoint users, so posts in flight together never share a user and a
// shed post resent in place keeps every user's events in order.
func (w *wireConn) sendEvents(posts []post, start time.Time, open bool, res *connResult) {
	var inflight [slotsPerConn]*post
	var sentAt [slotsPerConn]time.Time
	n := 0
	send := func(p *post) bool {
		if _, err := w.c.Write(p.frame); err != nil {
			res.err = fmt.Errorf("writing event post: %w", err)
			return false
		}
		res.posts++
		inflight[p.slot], sentAt[p.slot] = p, time.Now()
		return true
	}
	// readAck consumes one acknowledgement and frees (or resends) its slot.
	readAck := func() bool {
		typ, payload, err := wire.ReadFrame(w.br, w.buf)
		if err != nil {
			res.err = fmt.Errorf("reading ack: %w", err)
			return false
		}
		w.buf = payload[:cap(payload)]
		if typ != wire.FAck {
			res.err = fmt.Errorf("expected ack frame, got type %d", typ)
			return false
		}
		slot, ack, err := wire.ParseAck(payload)
		if err != nil || slot >= slotsPerConn || inflight[slot] == nil {
			res.err = fmt.Errorf("bad ack (slot %d): %v", slot, err)
			return false
		}
		p := inflight[slot]
		switch ack.Status {
		case wire.StatusOK:
			if ack.Accepted != p.events {
				res.err = fmt.Errorf("post of %d events acknowledged %d", p.events, ack.Accepted)
				return false
			}
			now := time.Now()
			res.ackMs = append(res.ackMs, ms(now.Sub(sentAt[slot])))
			clientSpan(w.tr, "client.post", "/event", p.seq, sentAt[slot], now)
			res.sessions += p.sessions
			res.events += p.events
			inflight[slot] = nil
			n--
			return true
		case wire.StatusShed:
			res.sheds++
			time.Sleep(shedBackoff)
			return send(p)
		default:
			res.err = fmt.Errorf("event post refused: %s %s", wire.StatusText(ack.Status), ack.Msg)
			return false
		}
	}
	for i := range posts {
		p := &posts[i]
		for inflight[p.slot] != nil {
			if !readAck() {
				return
			}
		}
		if open {
			res.lateMs = append(res.lateMs, waitUntil(start.Add(p.due)))
		}
		if !send(p) {
			return
		}
		n++
	}
	for n > 0 {
		if !readAck() {
			return
		}
	}
}

func (w *wireConn) predict(req []byte) (degraded, shed bool, err error) {
	if _, err := w.c.Write(req); err != nil {
		return false, false, err
	}
	typ, payload, err := wire.ReadFrame(w.br, w.buf)
	if err != nil {
		return false, false, err
	}
	w.buf = payload[:cap(payload)]
	if typ != wire.FPredictReply {
		return false, false, fmt.Errorf("expected predict reply, got frame type %d", typ)
	}
	_, pr, err := wire.ParsePredictReply(payload)
	if err != nil {
		return false, false, err
	}
	switch pr.Status {
	case wire.StatusOK:
		return pr.Degraded, false, nil
	case wire.StatusShed:
		return false, true, nil
	}
	return false, false, fmt.Errorf("predict refused: %s %s", wire.StatusText(pr.Status), pr.Msg)
}

// ---- HTTP/JSON plane ----

// httpConn is a keep-alive HTTP/1.1 connection that writes pre-encoded
// requests and parses replies with the standard library.
type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
	tr   *tracer
}

func dialHTTP(addr string, tr *tracer) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 16<<10), tr: tr}, nil
}

func (h *httpConn) Close() error { return h.c.Close() }

func (h *httpConn) roundTrip(req []byte) (status int, err error) {
	if _, err := h.c.Write(req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, err
	}
	h.body.Reset()
	_, err = io.Copy(&h.body, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

func (h *httpConn) sendEvents(posts []post, start time.Time, open bool, res *connResult) {
	for i := range posts {
		p := &posts[i]
		if open {
			res.lateMs = append(res.lateMs, waitUntil(start.Add(p.due)))
		}
		for {
			t0 := time.Now()
			status, err := h.roundTrip(p.frame)
			res.posts++
			if err != nil {
				res.err = fmt.Errorf("event post: %w", err)
				return
			}
			if status == http.StatusTooManyRequests {
				res.sheds++
				time.Sleep(shedBackoff)
				continue
			}
			if status != http.StatusAccepted {
				res.err = fmt.Errorf("event post refused: HTTP %d %s", status, h.body.String())
				return
			}
			now := time.Now()
			res.ackMs = append(res.ackMs, ms(now.Sub(t0)))
			clientSpan(h.tr, "client.post", "/event", p.seq, t0, now)
			res.sessions += p.sessions
			res.events += p.events
			break
		}
	}
}

func (h *httpConn) predict(req []byte) (degraded, shed bool, err error) {
	status, err := h.roundTrip(req)
	if err != nil {
		return false, false, err
	}
	switch status {
	case http.StatusOK:
		return bytes.Contains(h.body.Bytes(), []byte(`"degraded":true`)), false, nil
	case http.StatusTooManyRequests:
		return false, true, nil
	}
	return false, false, fmt.Errorf("predict refused: HTTP %d %s", status, h.body.String())
}

// waitUntil sleeps until t and reports how many milliseconds late the
// caller woke (0 when on time).
func waitUntil(t time.Time) float64 {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
	if late := time.Since(t); late > 0 {
		return ms(late)
	}
	return 0
}

// generator owns the data-plane connections of one fixture.
type generator struct {
	events   []dataConn
	predicts []dataConn
	tr       *tracer
}

// generatorConns sizes the generator. Closed loop: G = min(nproc, 4)
// sender goroutines, one connection each, of which one samples predicts
// and the others (at least one) carry events.
func generatorConns(spec workloadSpec) (eventConns, predictConns int) {
	if spec.Open {
		return openEventConns, openPredictConns
	}
	return max(1, min(runtime.NumCPU(), 4)-1), 1
}

func newGenerator(spec workloadSpec, wireAddr, httpAddr string, tr *tracer) (*generator, error) {
	g := &generator{tr: tr}
	nEvent, nPredict := generatorConns(spec)
	for i := 0; i < nEvent; i++ {
		c, err := dialData(spec, wireAddr, httpAddr, tr)
		if err != nil {
			g.close()
			return nil, err
		}
		g.events = append(g.events, c)
	}
	for i := 0; i < nPredict; i++ {
		c, err := dialData(spec, wireAddr, httpAddr, tr)
		if err != nil {
			g.close()
			return nil, err
		}
		g.predicts = append(g.predicts, c)
	}
	return g, nil
}

func (g *generator) close() {
	for _, c := range append(append([]dataConn(nil), g.events...), g.predicts...) {
		c.Close()
	}
}

// run sends one segment's load and returns when every event post has been
// acknowledged. Closed loop: the predict sampler runs until stop is
// closed by the caller (after the flush). Open loop: every scheduled
// predict is sent. The returned wait function joins the predict senders
// and yields the merged result.
func (g *generator) run(spec workloadSpec, load *segmentLoad, start time.Time, stop <-chan struct{}) (eventsDone func() *connResult, predictsDone func() *connResult) {
	evRes := make([]connResult, len(g.events))
	var evWG sync.WaitGroup
	for i, c := range g.events {
		evWG.Add(1)
		go func(i int, c dataConn) {
			defer evWG.Done()
			c.sendEvents(load.conns[i], start, spec.Open, &evRes[i])
		}(i, c)
	}
	prRes := make([]connResult, len(g.predicts))
	var prWG sync.WaitGroup
	for i, c := range g.predicts {
		prWG.Add(1)
		go func(i int, c dataConn) {
			defer prWG.Done()
			if spec.Open {
				openPredicts(g.tr, c, load, i, len(g.predicts), start, &prRes[i])
			} else {
				samplePredicts(g.tr, c, load.predicts, spec.PredictEvery, stop, &prRes[i])
			}
		}(i, c)
	}
	join := func(wg *sync.WaitGroup, parts []connResult) func() *connResult {
		return func() *connResult {
			wg.Wait()
			var out connResult
			for i := range parts {
				out.merge(&parts[i])
			}
			return &out
		}
	}
	return join(&evWG, evRes), join(&prWG, prRes)
}

func recordPredict(tr *tracer, c dataConn, req []byte, seq int, from time.Time, res *connResult) bool {
	degraded, shed, err := c.predict(req)
	if err != nil {
		res.err = fmt.Errorf("predict: %w", err)
		return false
	}
	if shed {
		res.predShed++
		return true
	}
	now := time.Now()
	res.predicts++
	res.predictMs = append(res.predictMs, ms(now.Sub(from)))
	clientSpan(tr, "client.predict", "/predict", seq, from, now)
	if degraded {
		res.degraded++
	}
	return true
}

// samplePredicts is the closed-loop side channel: one predict per period
// on its own connection until stop closes, timed from the send.
func samplePredicts(tr *tracer, c dataConn, reqs [][]byte, every time.Duration, stop <-chan struct{}, res *connResult) {
	if len(reqs) == 0 {
		res.err = errors.New("no predict requests encoded")
		return
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for i := 0; ; i++ {
		if !recordPredict(tr, c, reqs[i%len(reqs)], i%len(reqs), time.Now(), res) {
			return
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// openPredicts sends this connection's share of the schedule, timing each
// request from when it was due so a stall charges the requests behind it.
func openPredicts(tr *tracer, c dataConn, load *segmentLoad, worker, workers int, start time.Time, res *connResult) {
	for i := worker; i < len(load.predicts); i += workers {
		due := start.Add(load.predictDue(i))
		res.lateMs = append(res.lateMs, waitUntil(due))
		if !recordPredict(tr, c, load.predicts[i], i, due, res) {
			return
		}
	}
}
