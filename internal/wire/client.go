package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

var (
	// ErrClientClosed reports a call on a closed client.
	ErrClientClosed = errors.New("wire: client closed")
	// ErrCallTimeout reports a request that got no reply within the call
	// timeout. The request may still execute — callers retry only
	// idempotent work (predicts, never events).
	ErrCallTimeout = errors.New("wire: call timeout")
)

// ClientOptions configure a pooled wire client.
type ClientOptions struct {
	// Conns is the pool size (default 1). Callers pin a lane — a user
	// shard, an inbound connection — to one pooled connection so
	// per-lane request order is preserved end to end.
	Conns int
	// Window caps requests in flight per connection (default 64).
	Window int
	// DialTimeout bounds connection establishment including the version
	// handshake (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds one request round trip, queueing included
	// (default 30s).
	CallTimeout time.Duration
}

func (o *ClientOptions) fill() {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 30 * time.Second
	}
}

// Client is a pooled, pipelined wire client for one server address.
// Each pooled connection carries up to Window requests in flight,
// correlated by request ID; replies are dispatched by a per-connection
// reader goroutine. A broken connection fails its in-flight requests and
// is redialed transparently on next use — callers decide what is safe to
// re-send (predicts yes, events no).
type Client struct {
	addr   string
	opts   ClientOptions
	conns  []*clientConn
	closed atomic.Bool
}

// NewClient builds a client for addr. It does not dial — connections are
// established lazily on first use.
func NewClient(addr string, opts ClientOptions) *Client {
	opts.fill()
	c := &Client{addr: addr, opts: opts}
	c.conns = make([]*clientConn, opts.Conns)
	for i := range c.conns {
		c.conns[i] = &clientConn{
			cl:      c,
			window:  make(chan struct{}, opts.Window),
			pending: map[uint64]chan reply{},
		}
	}
	return c
}

// Close tears down every pooled connection and fails in-flight requests.
// It cannot fail: closing is a state flip plus best-effort socket closes.
func (c *Client) Close() {
	c.closed.Store(true)
	for _, cc := range c.conns {
		cc.fail(0, ErrClientClosed)
	}
}

// SendEvents sends one event batch (count + pre-encoded events) on the
// lane's pinned connection and waits for the server's ack. A transport
// error leaves delivery unknown; events are never retried here — the
// caller owns that policy (the double-apply rule).
func (c *Client) SendEvents(lane uint64, count int, events []byte) (Ack, error) {
	r, err := c.lane(lane).roundTrip(FEvents, count, events)
	if err != nil {
		return Ack{}, err
	}
	return r.ack, nil
}

// SendPredict sends one pre-encoded predict payload (after the request
// ID) and waits for the reply. Predicts are idempotent, so a transport
// error is transparently retried on a fresh connection up to `retries`
// times before surfacing.
func (c *Client) SendPredict(lane uint64, payload []byte, retries int) (PredictReply, error) {
	cc := c.lane(lane)
	for attempt := 0; ; attempt++ {
		r, err := cc.roundTrip(FPredict, 0, payload)
		if err == nil {
			return r.pr, nil
		}
		if attempt >= retries || errors.Is(err, ErrClientClosed) {
			return PredictReply{}, err
		}
	}
}

func (c *Client) lane(lane uint64) *clientConn {
	return c.conns[lane%uint64(len(c.conns))]
}

// reply carries one correlated server response (or the transport error
// that killed the connection it rode).
type reply struct {
	ack Ack
	pr  PredictReply
	err error
}

// clientConn is one pooled connection. Locks are leaf-ordered and never
// held across blocking I/O: mu guards (re)dial state swaps, writeMu
// serializes frame writes, pendMu guards the correlation map. Dialing,
// reading, and reply delivery all happen outside every lock.
type clientConn struct {
	cl *Client

	mu   sync.Mutex // guards conn/fw/gen swaps; never held while dialing or reading
	conn net.Conn
	fw   *Writer
	gen  uint64

	writeMu sync.Mutex // serializes frame write + flush

	pendMu  sync.Mutex
	pending map[uint64]chan reply

	nextID atomic.Uint64
	window chan struct{}
}

// roundTrip sends one request and waits for its reply. An FEvents request
// carries count events in payload; any other type sends payload as is.
func (cc *clientConn) roundTrip(typ byte, count int, payload []byte) (reply, error) {
	timer := time.NewTimer(cc.cl.opts.CallTimeout)
	defer timer.Stop()

	// One window slot per request bounds pipelining depth and applies
	// backpressure before the write, sharing the call's timeout budget.
	select {
	case cc.window <- struct{}{}:
	case <-timer.C:
		return reply{}, fmt.Errorf("%w: no window slot to %s", ErrCallTimeout, cc.cl.addr)
	}
	defer func() { <-cc.window }()

	fw, gen, err := cc.ensure()
	if err != nil {
		return reply{}, err
	}

	id := cc.nextID.Add(1)
	ch := make(chan reply, 1)
	cc.pendMu.Lock()
	cc.pending[id] = ch
	cc.pendMu.Unlock()

	cc.writeMu.Lock()
	if typ == FEvents {
		err = fw.WriteEvents(id, count, payload)
	} else {
		err = fw.WriteRequest(typ, id, payload)
	}
	if err == nil {
		err = fw.Flush()
	}
	cc.writeMu.Unlock()
	if err != nil {
		cc.unregister(id)
		cc.fail(gen, err)
		return reply{}, fmt.Errorf("wire: write to %s: %w", cc.cl.addr, err)
	}

	select {
	case r := <-ch:
		return r, r.err
	case <-timer.C:
		// The reply may still arrive; the reader drops unknown IDs.
		cc.unregister(id)
		return reply{}, fmt.Errorf("%w waiting on %s", ErrCallTimeout, cc.cl.addr)
	}
}

// ensure returns the live connection's writer, dialing outside all locks
// when there is none. Two racing dials are resolved under mu: the loser
// closes its fresh connection.
func (cc *clientConn) ensure() (*Writer, uint64, error) {
	cc.mu.Lock()
	if cc.cl.closed.Load() {
		cc.mu.Unlock()
		return nil, 0, ErrClientClosed
	}
	if cc.conn != nil {
		fw, gen := cc.fw, cc.gen
		cc.mu.Unlock()
		return fw, gen, nil
	}
	cc.mu.Unlock()

	conn, br, fw, err := dial(cc.cl.addr, cc.cl.opts.DialTimeout)
	if err != nil {
		return nil, 0, err
	}

	cc.mu.Lock()
	if cc.cl.closed.Load() {
		cc.mu.Unlock()
		conn.Close()
		return nil, 0, ErrClientClosed
	}
	if cc.conn != nil { // lost a dial race; use the winner
		fw, gen := cc.fw, cc.gen
		cc.mu.Unlock()
		conn.Close()
		return fw, gen, nil
	}
	cc.conn, cc.fw = conn, fw
	cc.gen++
	gen := cc.gen
	cc.mu.Unlock()

	go cc.readLoop(br, gen)
	return fw, gen, nil
}

// dial connects, threads the wire.read/wire.write fault points through
// the connection, and exchanges the version handshake. A watchdog timer
// bounds the handshake read without holding any lock.
func dial(addr string, timeout time.Duration) (net.Conn, *bufio.Reader, *Writer, error) {
	raw, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, nil, err
	}
	conn := faults.WrapConn("wire", addr, raw)
	watchdog := time.AfterFunc(timeout, func() { conn.Close() })
	defer watchdog.Stop()

	fw := NewWriter(bufio.NewWriterSize(conn, 32<<10))
	br := bufio.NewReaderSize(conn, 32<<10)
	if err = fw.WriteHello(); err == nil {
		err = fw.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("wire: handshake write to %s: %w", addr, err)
	}
	typ, p, err := ReadFrame(br, nil)
	if err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("wire: handshake read from %s: %w", addr, err)
	}
	if err := CheckHello(typ, p); err != nil {
		conn.Close()
		return nil, nil, nil, err
	}
	return conn, br, fw, nil
}

// readLoop dispatches replies by request ID until the connection dies.
func (cc *clientConn) readLoop(br *bufio.Reader, gen uint64) {
	var buf []byte
	for {
		typ, p, err := ReadFrame(br, buf)
		if err != nil {
			cc.fail(gen, err)
			return
		}
		buf = p[:cap(p)]
		var id uint64
		var r reply
		switch typ {
		case FAck:
			id, r.ack, err = ParseAck(p)
		case FPredictReply:
			id, r.pr, err = ParsePredictReply(p)
		default:
			err = fmt.Errorf("wire: unexpected frame type %d from %s", typ, cc.cl.addr)
		}
		if err != nil {
			cc.fail(gen, err)
			return
		}
		cc.pendMu.Lock()
		ch := cc.pending[id]
		delete(cc.pending, id)
		cc.pendMu.Unlock()
		if ch != nil {
			ch <- r // buffered(1), sole sender after delete — never blocks
		}
	}
}

func (cc *clientConn) unregister(id uint64) {
	cc.pendMu.Lock()
	delete(cc.pending, id)
	cc.pendMu.Unlock()
}

// fail tears down generation gen (0 = whatever is live) and errors every
// in-flight request: their writes rode the dead connection, so no reply
// will come. Delivery happens outside pendMu.
func (cc *clientConn) fail(gen uint64, cause error) {
	cc.mu.Lock()
	if cc.conn == nil || (gen != 0 && cc.gen != gen) {
		cc.mu.Unlock()
		return
	}
	conn := cc.conn
	cc.conn, cc.fw = nil, nil
	cc.mu.Unlock()
	conn.Close()

	cc.pendMu.Lock()
	chans := make([]chan reply, 0, len(cc.pending))
	for id, ch := range cc.pending {
		delete(cc.pending, id)
		chans = append(chans, ch)
	}
	cc.pendMu.Unlock()
	err := fmt.Errorf("wire: connection to %s lost: %w", cc.cl.addr, cause)
	for _, ch := range chans {
		ch <- reply{err: err}
	}
}
