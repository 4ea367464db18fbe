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

	"repro/internal/faults"
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
// what keeps a start/access pair atomic). Predicts run inline, like
// everything else on the connection: the read loop is the connection's
// only writer, and a local prediction (one KV read, a small MLP) costs
// less than handing it to another goroutine would. Any malformed frame —
// bad CRC, bad type, truncated batch, unparsable predict — drops the
// connection: the stream position cannot be trusted, and the client's
// reconnect is transparent.
func (s *Server) serveWireConn(conn net.Conn) {
	defer s.wireWG.Done()
	defer s.dropWireConn(conn)

	br := bufio.NewReaderSize(conn, 64<<10)
	fw := wire.NewWriter(bufio.NewWriterSize(conn, 64<<10))

	if wire.AcceptHello(br, fw) != nil {
		return
	}

	var buf []byte
	var er wire.EventReader
	var ev wire.Event
	var cat []int // predict category scratch, reused across frames
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
			err = fw.WriteAck(reqID, status, accepted, msg)
		case wire.FPredict:
			var pr wire.PredictReply
			if pr, err = s.predictWire(p[8:], &cat); err == nil {
				err = fw.WritePredictReply(reqID, pr)
			}
		default:
			return
		}
		if err != nil || fw.Flush() != nil {
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

// predictWire serves one predict request with POST /predict semantics, on
// the connection's read loop. Categories decode into the connection's
// scratch, which the prediction is done with before the next frame is
// read. A non-nil error means the payload is malformed and the connection
// must drop.
func (s *Server) predictWire(payload []byte, cat *[]int) (wire.PredictReply, error) {
	if err := faults.Fire("server.predict", "wire"); err != nil {
		return wire.PredictReply{Status: wire.StatusError, Msg: err.Error()}, nil
	}
	pr, grown, err := wire.ParsePredict(payload, *cat)
	*cat = grown
	if err != nil {
		return wire.PredictReply{}, err
	}
	if pr.Ts <= 0 {
		return wire.PredictReply{Status: wire.StatusBadRequest, Msg: "predict needs user >= 0 and ts > 0"}, nil
	}
	if err := s.checkCat(pr.Cat); err != nil {
		return wire.PredictReply{Status: wire.StatusBadRequest, Msg: "predict: " + err.Error()}, nil
	}
	if s.shutdown.Load() {
		return wire.PredictReply{Status: wire.StatusDraining, Msg: "server draining"}, nil
	}
	if !s.admitPredict() {
		return wire.PredictReply{Status: wire.StatusShed, Msg: "too many predicts in flight, request shed"}, nil
	}
	dec := s.svc.OnSessionStart(pr.User, pr.Ts, pr.Cat)
	s.releasePredict()
	return wire.PredictReply{Status: wire.StatusOK, Probability: dec.Probability, Precompute: dec.Precompute}, nil
}
