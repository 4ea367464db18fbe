// Binary transport for the hot path. ServeWire accepts persistent
// connections speaking the internal/wire protocol and feeds decoded
// events into the same ingest lock, admission control, and batcher lanes
// as the HTTP handlers — the two transports are different spellings of
// one contract, which is what keeps the digest parity gate meaningful
// across them. Everything cold (flush, statz, digest, admin, replication)
// stays HTTP-only.

package server

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"

	"repro/internal/faults"
	"repro/internal/serving"
	"repro/internal/wire"
)

// ServeWire serves the binary event/predict protocol on l until Shutdown.
// Run it alongside Serve/ListenAndServe; any number of listeners may be
// active.
func (s *Server) ServeWire(l net.Listener) error {
	if !s.registerWireListener(l) {
		l.Close()
		return nil
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.shutdown.Load() {
				return nil
			}
			return err
		}
		if !s.registerWireConn(conn) {
			conn.Close()
			return nil
		}
		go s.serveWireConn(conn)
	}
}

func (s *Server) registerWireListener(l net.Listener) bool {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	if s.shutdown.Load() {
		return false
	}
	s.wireListeners[l] = struct{}{}
	return true
}

// registerWireConn adds a connection to the shutdown registry. The
// WaitGroup add happens under wireMu with the shutdown check, so it
// cannot race Shutdown's Wait.
func (s *Server) registerWireConn(c net.Conn) bool {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	if s.shutdown.Load() {
		return false
	}
	s.wireConns[c] = struct{}{}
	s.wireWG.Add(1)
	return true
}

func (s *Server) dropWireConn(c net.Conn) {
	s.wireMu.Lock()
	delete(s.wireConns, c)
	s.wireMu.Unlock()
	c.Close()
}

// closeWire stops the binary listeners and cuts live connections; called
// once from Shutdown.
func (s *Server) closeWire() {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	for l := range s.wireListeners {
		l.Close()
		delete(s.wireListeners, l)
	}
	for c := range s.wireConns {
		c.Close()
		delete(s.wireConns, c)
	}
}

// serveWireConn runs one connection: version handshake, then a frame
// loop. Event batches are validated whole, then applied whole under one
// ingest-lock hold (the same all-or-nothing contract as POST /event, and
// what keeps a start/access pair atomic). Predicts park in the batcher
// queue and are answered out of band so a slow predict never blocks the
// read loop. Any malformed frame — bad CRC, bad type, truncated batch —
// drops the connection: the stream position cannot be trusted, and the
// client's reconnect is transparent.
func (s *Server) serveWireConn(conn net.Conn) {
	defer s.wireWG.Done()
	defer s.dropWireConn(conn)

	br := bufio.NewReaderSize(conn, 64<<10)
	fw := wire.NewWriter(bufio.NewWriterSize(conn, 64<<10))
	var wmu sync.Mutex // serializes ack writes with async predict replies

	typ, p, err := wire.ReadFrame(br, nil)
	if err != nil || wire.CheckHello(typ, p) != nil {
		return
	}
	if err := fw.WriteHello(); err != nil || fw.Flush() != nil {
		return
	}

	buf := p[:cap(p)]
	var er wire.EventReader
	var ev wire.Event
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
			status, accepted, msg := s.ingestWire(&er, &ev, p[8:])
			wmu.Lock()
			err = fw.WriteAck(reqID, status, accepted, msg)
			if err == nil {
				err = fw.Flush()
			}
			wmu.Unlock()
			if err != nil {
				return
			}
		case wire.FPredict:
			if !s.parkWirePredict(conn, fw, &wmu, reqID, p[8:]) {
				return
			}
		default:
			return
		}
	}
}

// ingestWire applies one event batch with POST /event semantics: validate
// every event first, shed or reject the whole batch, then apply it under
// one ingest-lock hold.
func (s *Server) ingestWire(er *wire.EventReader, ev *wire.Event, batch []byte) (status byte, accepted int, msg string) {
	if err := faults.Fire("server.event", "wire"); err != nil {
		return wire.StatusError, 0, err.Error()
	}
	// Validation pass. Decoding is a varint walk — cheaper than holding
	// the ingest lock across validation, and it keeps the all-or-nothing
	// contract: nothing applies unless every event is well formed.
	n := 0
	if err := er.Reset(batch); err != nil {
		return wire.StatusBadRequest, 0, "decoding events: " + err.Error()
	}
	for er.More() {
		if err := er.Next(ev); err != nil {
			return wire.StatusBadRequest, 0, "decoding events: " + err.Error()
		}
		if len(ev.Sid) == 0 || ev.Ts <= 0 {
			return wire.StatusBadRequest, 0, "event needs session and ts > 0"
		}
		if ev.Start {
			if err := s.checkCat(ev.Cat); err != nil {
				return wire.StatusBadRequest, 0, "start event: " + err.Error()
			}
		}
		n++
	}
	if s.pool.Overloaded() {
		s.eventsShed.Add(int64(n))
		return wire.StatusShed, 0, "finalisation backlog full, event shed"
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return wire.StatusDraining, 0, "server draining"
	}
	// The decode errors below are unreachable — the validation pass just
	// proved the batch well formed — but they are consumed, not dropped,
	// and fail loudly if the two passes ever diverge.
	if err := er.Reset(batch); err != nil {
		s.mu.Unlock()
		return wire.StatusError, 0, "re-decoding validated batch: " + err.Error()
	}
	for er.More() {
		if err := er.Next(ev); err != nil {
			s.mu.Unlock()
			return wire.StatusError, 0, "re-decoding validated batch: " + err.Error()
		}
		if ev.Start {
			s.proc.OnSessionStart(string(ev.Sid), ev.User, ev.Ts, ev.Cat)
		} else {
			s.proc.OnAccess(string(ev.Sid), ev.Ts)
		}
	}
	s.mu.Unlock()
	s.events.Add(int64(n))
	return wire.StatusOK, n, ""
}

// parkWirePredict validates and parks one predict request, answering out
// of band when the micro-batched decision lands. Returns false when the
// connection must drop (malformed payload).
func (s *Server) parkWirePredict(conn net.Conn, fw *wire.Writer, wmu *sync.Mutex, reqID uint64, payload []byte) bool {
	replyStatus := func(status byte, msg string) bool {
		wmu.Lock()
		err := fw.WritePredictReply(reqID, wire.PredictReply{Status: status, Msg: msg})
		if err == nil {
			err = fw.Flush()
		}
		wmu.Unlock()
		return err == nil
	}
	if err := faults.Fire("server.predict", "wire"); err != nil {
		return replyStatus(wire.StatusError, err.Error())
	}
	pr, _, err := wire.ParsePredict(payload, nil)
	if err != nil {
		return false
	}
	if pr.Ts <= 0 {
		return replyStatus(wire.StatusBadRequest, "predict needs user >= 0 and ts > 0")
	}
	if err := s.checkCat(pr.Cat); err != nil {
		return replyStatus(wire.StatusBadRequest, "predict: "+err.Error())
	}
	it := predictItem{
		// Cat is copied: it aliases the read buffer, which the next frame
		// overwrites while this request is still parked.
		req: serving.PredictRequest{UserID: pr.User, Ts: pr.Ts, Cat: append([]int(nil), pr.Cat...)},
		ch:  make(chan serving.Decision, 1),
	}
	s.predictMu.RLock()
	if s.predictClosed {
		s.predictMu.RUnlock()
		return replyStatus(wire.StatusDraining, "server draining")
	}
	select {
	case s.predictQ <- it:
		s.predictMu.RUnlock()
	default:
		s.predictMu.RUnlock()
		s.predictsShed.Add(1)
		return replyStatus(wire.StatusShed, "predict queue full, request shed")
	}
	s.wireMu.Lock()
	if s.shutdown.Load() {
		s.wireMu.Unlock()
		// Shutdown is racing this park; the flusher still answers the
		// item, but the reply goroutine must not join a WaitGroup that
		// may already be draining. Answer inline instead.
		dec := <-it.ch
		return writeWireDecision(fw, wmu, reqID, dec)
	}
	s.wireWG.Add(1)
	s.wireMu.Unlock()
	go func() {
		defer s.wireWG.Done()
		dec := <-it.ch
		writeWireDecision(fw, wmu, reqID, dec)
	}()
	return true
}

func writeWireDecision(fw *wire.Writer, wmu *sync.Mutex, reqID uint64, dec serving.Decision) bool {
	wmu.Lock()
	defer wmu.Unlock()
	if err := fw.WritePredictReply(reqID, wire.PredictReply{
		Status:      wire.StatusOK,
		Probability: dec.Probability,
		Precompute:  dec.Precompute,
	}); err != nil {
		return false
	}
	return fw.Flush() == nil
}
