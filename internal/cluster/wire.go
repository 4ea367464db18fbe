// Binary transport for the router: an inbound wire listener (ServeWire)
// and per-replica outbound connection pools. The hot path never touches
// JSON — an inbound event batch is spliced into per-owner sub-batches by
// copying byte ranges (wire.Splicer) and re-framed onto pooled
// connections, so the fan-out cost is a varint walk plus memcpy instead
// of a decode/re-marshal cycle. Per-user order is preserved by pinning:
// a user rides one client connection (internal/loadgen shards users
// across its connections with serving.UserLane), each inbound
// connection pins to one outbound pooled connection per replica, and
// event frames on a connection are forwarded synchronously — acked before
// the next frame is read — so frames cannot overtake each other.
//
// The PR 8 hardening carries over unchanged: forwards are gated by the
// same per-replica breaker and counted in the same error taxonomy as HTTP
// forwards, events are never retried here (the double-apply rule: only
// the client can safely re-send a whole ordered batch), and predicts —
// idempotent reads — retry in place and degrade to a non-owner replica
// when the owner is unreachable. A replica with no configured wire
// address (a follower promoted mid-failover, a resharded-in URL) is
// forwarded over HTTP instead; degradation, not refusal.

package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// ServeWire serves the binary event/predict protocol on l until CloseWire.
func (r *Router) ServeWire(l net.Listener) error {
	if !r.registerWireListener(l) {
		l.Close()
		return nil
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			if r.wireClosed.Load() {
				return nil
			}
			return err
		}
		if !r.registerWireConn(conn) {
			conn.Close()
			return nil
		}
		go r.serveWireConn(conn, r.wireConnSeq.Add(1))
	}
}

// CloseWire stops the wire listeners, cuts inbound connections, and
// closes the outbound pools. Idempotent; call after the HTTP server shuts
// down.
func (r *Router) CloseWire() {
	r.wireClosed.Store(true)
	r.wireMu.Lock()
	defer r.wireMu.Unlock()
	for l := range r.wireListeners {
		l.Close()
		delete(r.wireListeners, l)
	}
	for c := range r.wireConnsIn {
		c.Close()
		delete(r.wireConnsIn, c)
	}
	for base, cl := range r.wirePools {
		cl.Close()
		delete(r.wirePools, base)
	}
}

func (r *Router) registerWireListener(l net.Listener) bool {
	r.wireMu.Lock()
	defer r.wireMu.Unlock()
	if r.wireClosed.Load() {
		return false
	}
	r.wireListeners[l] = struct{}{}
	return true
}

func (r *Router) registerWireConn(c net.Conn) bool {
	r.wireMu.Lock()
	defer r.wireMu.Unlock()
	if r.wireClosed.Load() {
		return false
	}
	r.wireConnsIn[c] = struct{}{}
	return true
}

func (r *Router) dropWireConn(c net.Conn) {
	r.wireMu.Lock()
	delete(r.wireConnsIn, c)
	r.wireMu.Unlock()
	c.Close()
}

// wireClientFor returns (lazily building) the outbound pool for a replica,
// or nil when the replica has no configured wire address.
func (r *Router) wireClientFor(base string) *wire.Client {
	r.wireMu.Lock()
	defer r.wireMu.Unlock()
	if cl, ok := r.wirePools[base]; ok {
		return cl
	}
	addr := r.wireAddrs[base]
	if addr == "" || r.wireClosed.Load() {
		return nil
	}
	cl := wire.NewClient(addr, wire.ClientOptions{
		Conns:       r.opts.WireConns,
		Window:      r.opts.WireWindow,
		CallTimeout: r.opts.DataTimeout,
	})
	r.wirePools[base] = cl
	return cl
}

// wireInbound is one inbound connection's reply writer and the fan-out
// scratch its serving goroutine reuses from one event frame to the next.
type wireInbound struct {
	fw   *wire.Writer
	wmu  sync.Mutex // serializes acks with the out-of-band predict replies
	lane uint64

	spl wire.Splicer
	// results collects the owners' acks for one event frame. It holds one
	// slot per replica and is re-made only when a reshard grows the ring.
	results chan wireEventResult
	// fwd feeds the connection's long-lived forwarders, one per owner of a
	// frame beyond the first: fwd[0] sends the second owner's sub-batch,
	// fwd[1] the third's, and so on. A forwarder starts the first time a
	// frame has that many owners and is stopped and joined when the
	// connection ends (stopForwarders).
	fwd   []chan wireForward
	fwdWG sync.WaitGroup
}

// wireForward is one owner sub-batch handed to a forwarder, with the
// channel its ack goes back on.
type wireForward struct {
	results chan<- wireEventResult
	base    string
	n       int
	events  []byte
}

// forward hands job to the k-th forwarder, starting it on first use.
func (in *wireInbound) forward(r *Router, k int, job wireForward) {
	for len(in.fwd) <= k {
		jobs := make(chan wireForward, 1)
		in.fwd = append(in.fwd, jobs)
		in.fwdWG.Add(1)
		go func() {
			defer in.fwdWG.Done()
			for j := range jobs {
				j.results <- r.sendWireEvents(j.base, in.lane, j.n, j.events)
			}
		}()
	}
	in.fwd[k] <- job
}

// stopForwarders stops the connection's forwarders and waits for them.
// They are idle: event frames are handled synchronously, so every job
// has been answered before the read loop returns.
func (in *wireInbound) stopForwarders() {
	for _, jobs := range in.fwd {
		close(jobs)
	}
	in.fwdWG.Wait()
}

// serveWireConn runs one inbound connection. Event frames are handled
// synchronously — splice, forward, collect acks, reply — which is the
// ordering barrier; predicts are answered out of band so a slow owner
// cannot stall the event stream sharing the connection.
func (r *Router) serveWireConn(conn net.Conn, lane uint64) {
	defer r.dropWireConn(conn)
	var predictWG sync.WaitGroup
	defer predictWG.Wait()

	br := bufio.NewReaderSize(conn, 64<<10)
	in := &wireInbound{fw: wire.NewWriter(bufio.NewWriterSize(conn, 64<<10)), lane: lane}
	defer in.stopForwarders()

	if wire.AcceptHello(br, in.fw) != nil {
		return
	}

	var buf []byte
	for {
		typ, p, err := wire.ReadFrame(br, buf)
		if err != nil {
			return
		}
		buf = p[:cap(p)]
		if len(p) < 8 {
			return
		}
		reqID := binary.LittleEndian.Uint64(p)
		switch typ {
		case wire.FEvents:
			if !r.routeWireEvents(in, reqID, p[8:]) {
				return
			}
		case wire.FPredict:
			// The payload is copied: the reply is written out of band and
			// the read buffer is reused for the next frame meanwhile.
			payload := append([]byte(nil), p[8:]...)
			predictWG.Add(1)
			go func() {
				defer predictWG.Done()
				r.routeWirePredict(in, reqID, payload)
			}()
		default:
			return
		}
	}
}

// wireEventResult is one owner sub-batch outcome.
type wireEventResult struct {
	status   byte
	accepted int
	msg      string
}

// statusRank orders ack statuses for worst-status aggregation, mirroring
// the HTTP handler: OK < shed (429: retriable backpressure) < everything
// else (hard failures override a shed).
func statusRank(s byte) int {
	switch s {
	case wire.StatusOK:
		return 0
	case wire.StatusShed:
		return 1
	default:
		return 2
	}
}

// routeWireEvents splices one inbound batch by ring owner and forwards
// the sub-batches concurrently, answering with the worst ack. The first
// owner's sub-batch is forwarded on the connection's own goroutine, each
// other one by one of the connection's forwarders. Returns false when
// the connection must drop (malformed batch — the stream cannot be
// trusted). Forwarding happens under mu.RLock for the same reason as the
// HTTP handler: a reshard cannot swap the ring while a batch split by the
// old ring is still landing.
func (r *Router) routeWireEvents(in *wireInbound, reqID uint64, batch []byte) bool {
	r.mu.RLock()
	ring := r.ring
	spl := &in.spl
	spl.Reset(ring.NumReplicas())
	if err := spl.Split(batch, ring); err != nil {
		r.mu.RUnlock()
		return false
	}
	if cap(in.results) < spl.Owners() {
		in.results = make(chan wireEventResult, spl.Owners())
	}
	results := in.results
	first, others := -1, 0
	for i := 0; i < spl.Owners(); i++ {
		n, events := spl.Batch(i)
		if n == 0 {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		in.forward(r, others, wireForward{results: results, base: ring.Replica(i), n: n, events: events})
		others++
	}
	worst := wireEventResult{status: wire.StatusOK}
	accepted := 0
	merge := func(res wireEventResult) {
		accepted += res.accepted
		if statusRank(res.status) > statusRank(worst.status) {
			worst = res
		}
	}
	if first >= 0 {
		n, events := spl.Batch(first)
		merge(r.sendWireEvents(ring.Replica(first), in.lane, n, events))
	}
	for i := 0; i < others; i++ {
		// Collecting under RLock is the drain barrier (see above); the
		// splicer's buffers also stay untouched until every forwarder
		// reading them has answered.
		merge(<-results) //pplint:allow lockcheck
	}
	r.mu.RUnlock()
	if worst.status != wire.StatusOK {
		accepted = 0
	}
	in.wmu.Lock()
	err := in.fw.WriteAck(reqID, worst.status, accepted, worst.msg)
	if err == nil {
		err = in.fw.Flush()
	}
	in.wmu.Unlock()
	return err == nil
}

// sendWireEvents forwards one owner sub-batch with event semantics: one
// attempt, breaker-gated, never retried (only the originating client may
// re-send an ordered batch). Wire acks feed the same taxonomy and breaker
// as HTTP statuses: error/draining acks count as server failures, shed
// and bad-request do not (the replica is healthy, the request was not).
func (r *Router) sendWireEvents(base string, lane uint64, count int, events []byte) wireEventResult {
	cl := r.wireClientFor(base)
	if cl == nil {
		return r.sendEventsHTTP(base, count, events)
	}
	if !r.breakerAllow(base) {
		r.noteForward(base, "breaker-open")
		return wireEventResult{status: wire.StatusError, msg: ErrBreakerOpen.Error() + ": " + base}
	}
	r.noteForward(base, "attempt")
	ack, err := cl.SendEvents(lane, count, events)
	if err != nil {
		r.noteForward(base, classifyErr(err))
		r.breakerResult(base, false)
		return wireEventResult{status: wire.StatusError, msg: "forwarding events: " + err.Error()}
	}
	switch ack.Status {
	case wire.StatusError, wire.StatusDraining:
		r.noteForward(base, "server-5xx")
		r.breakerResult(base, false)
	default:
		r.breakerResult(base, true)
	}
	return wireEventResult{status: ack.Status, accepted: ack.Accepted, msg: ack.Msg}
}

// sendEventsHTTP is the fallback for a replica without a wire address:
// decode the sub-batch into the JSON event shape and forward it through
// the hardened HTTP path. Rare by construction (failover promotion,
// reshard to a wire-less URL), so the re-marshal cost is acceptable.
func (r *Router) sendEventsHTTP(base string, count int, events []byte) wireEventResult {
	evs := make([]server.Event, 0, count)
	var er wire.EventReader
	var ev wire.Event
	// The events slice carries no count prefix; frame one for the reader.
	var head [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(head[:], uint64(count))
	if err := er.Reset(append(head[:n:n], events...)); err != nil {
		return wireEventResult{status: wire.StatusError, msg: err.Error()}
	}
	for er.More() {
		if err := er.Next(&ev); err != nil {
			return wireEventResult{status: wire.StatusError, msg: err.Error()}
		}
		e := server.Event{Session: string(ev.Sid), User: ev.User, Ts: ev.Ts}
		if ev.Start {
			e.Type = "start"
			e.Cat = append([]int(nil), ev.Cat...)
		} else {
			e.Type = "access"
		}
		evs = append(evs, e)
	}
	status, err := r.postJSON(context.Background(), base, "/event", evs, nil, r.dataOpts(0))
	if err != nil {
		return wireEventResult{status: wire.StatusError, msg: "forwarding events: " + err.Error()}
	}
	if status == http.StatusAccepted {
		return wireEventResult{status: wire.StatusOK, accepted: count}
	}
	return wireEventResult{status: statusFromHTTP(status), msg: fmt.Sprintf("replica rejected events (HTTP %d)", status)}
}

func statusFromHTTP(code int) byte {
	switch {
	case code == http.StatusOK || code == http.StatusAccepted:
		return wire.StatusOK
	case code == http.StatusTooManyRequests:
		return wire.StatusShed
	case code == http.StatusServiceUnavailable:
		return wire.StatusDraining
	case code >= 400 && code < 500:
		return wire.StatusBadRequest
	default:
		return wire.StatusError
	}
}

// routeWirePredict forwards one predict to the owner — wire when pooled,
// HTTP otherwise — and degrades to the other replicas when the owner
// cannot answer, exactly like the HTTP handler: the fallback's cold-start
// prior beats an error page.
func (r *Router) routeWirePredict(in *wireInbound, reqID uint64, payload []byte) {
	lane := in.lane
	user, err := wire.PredictUser(payload)
	if err != nil {
		r.writeWireReply(in, reqID, wire.PredictReply{Status: wire.StatusBadRequest, Msg: "decoding predict: " + err.Error()})
		return
	}
	r.mu.RLock()
	ring := r.ring
	owner := ring.Replica(ring.OwnerIndexOfUser(user))
	reply, err := r.sendWirePredict(owner, lane, payload, r.opts.PredictRetries)
	if err != nil || reply.Status == wire.StatusError || reply.Status == wire.StatusDraining {
		for i := 0; i < ring.NumReplicas(); i++ {
			u := ring.Replica(i)
			if u == owner {
				continue
			}
			fr, ferr := r.sendWirePredict(u, lane, payload, 0)
			if ferr == nil && fr.Status == wire.StatusOK {
				fr.Degraded = true
				reply, err = fr, nil
				r.degradedPredicts.Add(1)
				break
			}
		}
	}
	r.mu.RUnlock()
	if err != nil {
		reply = wire.PredictReply{Status: wire.StatusError, Msg: "forwarding predict: " + err.Error()}
	}
	r.writeWireReply(in, reqID, reply)
}

func (r *Router) writeWireReply(in *wireInbound, reqID uint64, reply wire.PredictReply) {
	in.wmu.Lock()
	defer in.wmu.Unlock()
	// A failed write means the inbound connection died; its read loop
	// notices and tears the connection down, so the error needs no
	// further handling here.
	if err := in.fw.WritePredictReply(reqID, reply); err != nil {
		return
	}
	if err := in.fw.Flush(); err != nil {
		return
	}
}

// sendWirePredict forwards one predict to one replica with the HTTP
// forward's semantics: breaker-gated attempts, taxonomy per outcome, and
// a retry budget with jittered linear backoff (predicts are idempotent).
// A reply is returned for any received status — callers decide whether to
// degrade; an error means no reply was received at all.
func (r *Router) sendWirePredict(base string, lane uint64, payload []byte, retries int) (wire.PredictReply, error) {
	var lastErr error
	var reply wire.PredictReply
	got := false
	for attempt := 0; ; attempt++ {
		if !r.breakerAllow(base) {
			r.noteForward(base, "breaker-open")
			return wire.PredictReply{}, fmt.Errorf("%w: %s", ErrBreakerOpen, base)
		}
		r.noteForward(base, "attempt")
		pr, err := r.predictOnce(base, lane, payload)
		if err == nil && pr.Status != wire.StatusError && pr.Status != wire.StatusDraining {
			r.breakerResult(base, true)
			return pr, nil
		}
		if err != nil {
			r.noteForward(base, classifyErr(err))
			lastErr = err
		} else {
			r.noteForward(base, "server-5xx")
			reply, got = pr, true
		}
		r.breakerResult(base, false)
		if attempt >= retries {
			if got {
				return reply, nil
			}
			return wire.PredictReply{}, lastErr
		}
		r.noteForward(base, "retry")
		sleep := time.Duration(attempt+1)*5*time.Millisecond +
			time.Duration(rand.Int63n(int64(5*time.Millisecond)))
		t := time.NewTimer(sleep)
		<-t.C
	}
}

// predictOnce sends one predict over the replica's wire pool, or over
// HTTP when it has none.
func (r *Router) predictOnce(base string, lane uint64, payload []byte) (wire.PredictReply, error) {
	if cl := r.wireClientFor(base); cl != nil {
		// Transport-level retries stay at 0: this loop owns the budget so
		// the breaker sees every attempt.
		return cl.SendPredict(lane, payload, 0)
	}
	pr, _, err := wire.ParsePredict(payload, nil)
	if err != nil {
		return wire.PredictReply{}, err
	}
	in := server.PredictIn{User: pr.User, Ts: pr.Ts, Cat: pr.Cat}
	var out server.PredictOut
	// forwardOnce, not forward: sendWirePredict owns the breaker and
	// taxonomy for this attempt, so the HTTP hop must not double-count.
	body, err := json.Marshal(in)
	if err != nil {
		return wire.PredictReply{}, err
	}
	resp, err := r.forwardOnce(base, body)
	if err != nil {
		return wire.PredictReply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return wire.PredictReply{}, err
		}
		return wire.PredictReply{Status: wire.StatusOK, Probability: out.Probability, Precompute: out.Precompute, Degraded: out.Degraded}, nil
	}
	io.Copy(io.Discard, resp.Body)
	return wire.PredictReply{Status: statusFromHTTP(resp.StatusCode)}, nil
}

// forwardOnce posts one predict body over HTTP with the data-plane
// deadline and no breaker/taxonomy (the wire caller accounts those).
func (r *Router) forwardOnce(base string, body []byte) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.DataTimeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/predict", bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelBody{rc: resp.Body, cancel: cancel}
	return resp, nil
}
