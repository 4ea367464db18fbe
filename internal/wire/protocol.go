// Package wire is the binary transport for the hot event/predict path.
//
// Over HTTP/JSON every router hop decodes JSON, re-marshals it, and pays
// a fresh net/http request cycle, so a 3-replica router delivered less
// throughput than a single replica. This package replaces that hop with
// persistent connections carrying length-prefixed binary frames —
// [1B type][4B little-endian payload length][payload][4B little-endian
// CRC-32 (IEEE) over type+length+payload], the codec both links use (the
// replication link frames its own types through Writer and ReadFrame) —
// so a router can forward an event batch by splicing byte ranges instead
// of materializing structs. HTTP/JSON remains the contract for everything
// cold: admin, statz, digest, reshard, flush, replication control.
//
// An event batch is a varint count followed by that many self-delimiting
// events. Every event — access as well as start — carries its user ID, so
// a router can route each event by walking [kind][uvarint user] and
// skipping the rest, with no session→owner table and no broadcast for
// orphan accesses. Requests are correlated to replies by an explicit
// request ID (first 8 bytes of every request and reply payload), which is
// what lets one connection carry many requests in flight.
//
// Corruption and truncation are connection-fatal by design: a CRC
// mismatch, an oversized length prefix, or a short read surfaces as an
// error before any payload is interpreted, the connection drops, and the
// client reconnects. Nothing is ever applied from a frame that did not
// arrive whole.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Version is the protocol version exchanged in the Hello frame. A peer
// speaking a different version is rejected at handshake, never mid-stream.
const Version = 1

// Frame types. Requests (client→server) and replies (server→client) both
// start their payload with an 8-byte little-endian request ID; replies
// echo the ID of the request they answer.
const (
	// FHello opens a connection in both directions: [1B version].
	FHello byte = 1
	// FEvents carries an event batch: [8B reqID][uvarint count][events].
	FEvents byte = 2
	// FPredict carries one predict request:
	// [8B reqID][uvarint user][uvarint ts][uvarint nCat][uvarint cat]...
	FPredict byte = 3
	// FAck answers FEvents: [8B reqID][1B status][uvarint accepted][msg].
	FAck byte = 4
	// FPredictReply answers FPredict:
	// [8B reqID][1B status][1B flags][8B float64 bits][msg].
	FPredictReply byte = 5
)

// Event kinds inside an FEvents batch.
const (
	// KindStart is a session start:
	// [1B kind][uvarint user][uvarint ts][uvarint sidLen][sid]
	// [uvarint nCat][uvarint cat]...
	KindStart byte = 0
	// KindAccess is a session access:
	// [1B kind][uvarint user][uvarint ts][uvarint sidLen][sid].
	KindAccess byte = 1
)

// Statuses carried in FAck and FPredictReply. They mirror the HTTP
// contract so the two transports degrade identically: Shed is the wire
// spelling of 429, Draining of 503, BadRequest of 400, Error of 500.
const (
	StatusOK         byte = 0
	StatusShed       byte = 1
	StatusDraining   byte = 2
	StatusBadRequest byte = 3
	StatusError      byte = 4
)

// PredictReply flag bits.
const (
	flagPrecompute byte = 1 << 0
	flagDegraded   byte = 1 << 1
)

// MaxFramePayload bounds a frame on both links so a corrupt length prefix
// cannot ask either side to allocate unbounded memory. It is comfortably
// above the HTTP body limit (8 MiB) so any batch the JSON path accepts
// fits. A replication frame carries one record, one bootstrap entry, one
// sequence number or a small JSON payload — a state is a few hundred
// bytes — so none comes near it.
const MaxFramePayload = 16 << 20

var (
	// ErrFrameTooLarge reports a length prefix above MaxFramePayload: like
	// a CRC mismatch, it means the stream cannot be trusted.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

	// ErrFrameCorrupt reports a frame whose CRC trailer does not match
	// its bytes. The stream position cannot be trusted past this point,
	// so the connection must be dropped.
	ErrFrameCorrupt = errors.New("wire: frame CRC mismatch")

	// ErrTruncated reports an event batch or request payload that ends
	// mid-field. Like corruption it is connection-fatal: a well-formed
	// peer never produces it, so the stream is not trustworthy.
	ErrTruncated = errors.New("wire: truncated payload")

	// ErrVersionMismatch reports a Hello naming a different protocol
	// version.
	ErrVersionMismatch = errors.New("wire: protocol version mismatch")
)

var crcTable = crc32.IEEETable

// Writer frames outbound messages onto one buffered writer, keeping a
// running CRC from the frame header through the payload so the trailer
// costs no extra pass over the bytes. Callers serialize access and decide
// when to Flush.
type Writer struct {
	w   *bufio.Writer
	crc uint32
}

// NewWriter wraps a buffered writer.
func NewWriter(w *bufio.Writer) *Writer { return &Writer{w: w} }

// Frame starts a frame of the given type and payload length.
func (fw *Writer) Frame(typ byte, payloadLen int) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(payloadLen))
	fw.crc = crc32.Update(0, crcTable, hdr[:])
	_, err := fw.w.Write(hdr[:])
	return err
}

// Body writes payload bytes, folding them into the frame's CRC.
func (fw *Writer) Body(p []byte) error {
	fw.crc = crc32.Update(fw.crc, crcTable, p)
	_, err := fw.w.Write(p)
	return err
}

// Trailer closes the frame with the accumulated CRC.
func (fw *Writer) Trailer() error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], fw.crc)
	_, err := fw.w.Write(b[:])
	return err
}

// Flush flushes the underlying buffered writer.
func (fw *Writer) Flush() error { return fw.w.Flush() }

// WriteRequest frames [8B reqID][rest] under typ.
func (fw *Writer) WriteRequest(typ byte, reqID uint64, rest []byte) error {
	if err := fw.Frame(typ, 8+len(rest)); err != nil {
		return err
	}
	var id [8]byte
	binary.LittleEndian.PutUint64(id[:], reqID)
	if err := fw.Body(id[:]); err != nil {
		return err
	}
	if err := fw.Body(rest); err != nil {
		return err
	}
	return fw.Trailer()
}

// WriteHello frames the version handshake.
func (fw *Writer) WriteHello() error {
	if err := fw.Frame(FHello, 1); err != nil {
		return err
	}
	if err := fw.Body([]byte{Version}); err != nil {
		return err
	}
	return fw.Trailer()
}

// ReadFrame reads one frame, reusing buf when it is large enough, and
// verifies the CRC trailer before handing the payload back. The payload
// aliases (a possibly regrown) buf; callers keep `buf = payload[:cap(payload)]`
// across calls to amortize the allocation.
func ReadFrame(r *bufio.Reader, buf []byte) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFramePayload {
		return 0, nil, ErrFrameTooLarge
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	var tb [4]byte
	if _, err := io.ReadFull(r, tb[:]); err != nil {
		return 0, nil, err
	}
	crc := crc32.Update(0, crcTable, hdr[:])
	crc = crc32.Update(crc, crcTable, buf)
	if binary.LittleEndian.Uint32(tb[:]) != crc {
		return 0, nil, fmt.Errorf("%w (type %d, %d bytes)", ErrFrameCorrupt, hdr[0], n)
	}
	return hdr[0], buf, nil
}

// CheckHello validates a handshake frame read by ReadFrame.
func CheckHello(typ byte, payload []byte) error {
	if typ != FHello || len(payload) != 1 {
		return fmt.Errorf("wire: expected hello frame, got type %d (%d bytes)", typ, len(payload))
	}
	if payload[0] != Version {
		return fmt.Errorf("%w: peer speaks %d, this side %d", ErrVersionMismatch, payload[0], Version)
	}
	return nil
}

// AcceptHello runs the accepting side of the version handshake: it reads
// the peer's hello, answers with this side's and flushes.
func AcceptHello(br *bufio.Reader, fw *Writer) error {
	typ, p, err := ReadFrame(br, nil)
	if err != nil {
		return err
	}
	if err := CheckHello(typ, p); err != nil {
		return err
	}
	if err := fw.WriteHello(); err != nil {
		return err
	}
	return fw.Flush()
}

// AppendStart appends one encoded session-start event.
func AppendStart(dst []byte, user int, ts int64, sid string, cat []int) []byte {
	dst = append(dst, KindStart)
	dst = binary.AppendUvarint(dst, uint64(user))
	dst = binary.AppendUvarint(dst, uint64(ts))
	dst = binary.AppendUvarint(dst, uint64(len(sid)))
	dst = append(dst, sid...)
	dst = binary.AppendUvarint(dst, uint64(len(cat)))
	for _, c := range cat {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// AppendAccess appends one encoded session-access event.
func AppendAccess(dst []byte, user int, ts int64, sid string) []byte {
	dst = append(dst, KindAccess)
	dst = binary.AppendUvarint(dst, uint64(user))
	dst = binary.AppendUvarint(dst, uint64(ts))
	dst = binary.AppendUvarint(dst, uint64(len(sid)))
	dst = append(dst, sid...)
	return dst
}

// AppendPredict appends an encoded predict request (the payload after the
// request ID).
func AppendPredict(dst []byte, user int, ts int64, cat []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(user))
	dst = binary.AppendUvarint(dst, uint64(ts))
	dst = binary.AppendUvarint(dst, uint64(len(cat)))
	for _, c := range cat {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// uvarint decodes one varint at off, rejecting values that do not fit an
// int64 and reads that run off the buffer.
func uvarint(p []byte, off int) (v uint64, end int, err error) {
	v, n := binary.Uvarint(p[off:])
	if n <= 0 || v > 1<<63-1 {
		return 0, 0, ErrTruncated
	}
	return v, off + n, nil
}

// eventSpan decodes the routing prefix of the event starting at off and
// returns its user ID and end offset without touching the rest of the
// event. This is the splice fast path: one byte for the kind, one varint
// for the user, then length-skips.
func eventSpan(p []byte, off int) (user int, end int, err error) {
	if off >= len(p) {
		return 0, 0, ErrTruncated
	}
	kind := p[off]
	if kind != KindStart && kind != KindAccess {
		return 0, 0, ErrTruncated
	}
	u, off, err := uvarint(p, off+1)
	if err != nil {
		return 0, 0, err
	}
	if _, off, err = uvarint(p, off); err != nil { // ts
		return 0, 0, err
	}
	sidLen, off, err := uvarint(p, off)
	if err != nil {
		return 0, 0, err
	}
	if sidLen > uint64(len(p)-off) {
		return 0, 0, ErrTruncated
	}
	off += int(sidLen)
	if kind == KindStart {
		nCat, o, err := uvarint(p, off)
		if err != nil {
			return 0, 0, err
		}
		off = o
		for i := uint64(0); i < nCat; i++ {
			if _, off, err = uvarint(p, off); err != nil {
				return 0, 0, err
			}
		}
	}
	return int(u), off, nil
}

// Event is one decoded wire event. Sid aliases the batch buffer and Cat
// aliases the reader's scratch; both are only valid until the next call
// to Next — copy what you retain.
type Event struct {
	Start bool
	User  int
	Ts    int64
	Sid   []byte
	Cat   []int
}

// EventReader walks a varint-prefixed event batch.
type EventReader struct {
	p    []byte
	off  int
	left int
	cat  []int
}

// Reset points the reader at a batch ([uvarint count][events]).
func (er *EventReader) Reset(batch []byte) error {
	n, off, err := uvarint(batch, 0)
	if err != nil {
		return err
	}
	// Each event is at least 4 bytes (kind + three 1-byte varints), so a
	// count wildly larger than the batch is rejected before any loop.
	if n > uint64(len(batch)) {
		return ErrTruncated
	}
	er.p, er.off, er.left = batch, off, int(n)
	return nil
}

// More reports whether events remain.
func (er *EventReader) More() bool { return er.left > 0 }

// Next decodes the next event into ev, reusing ev-independent scratch for
// the category slice. After the last event it verifies the batch has no
// trailing garbage.
func (er *EventReader) Next(ev *Event) error {
	if er.left <= 0 {
		return ErrTruncated
	}
	p, off := er.p, er.off
	if off >= len(p) {
		return ErrTruncated
	}
	kind := p[off]
	if kind != KindStart && kind != KindAccess {
		return ErrTruncated
	}
	u, off, err := uvarint(p, off+1)
	if err != nil {
		return err
	}
	ts, off, err := uvarint(p, off)
	if err != nil {
		return err
	}
	sidLen, off, err := uvarint(p, off)
	if err != nil {
		return err
	}
	if sidLen > uint64(len(p)-off) {
		return ErrTruncated
	}
	ev.Start = kind == KindStart
	ev.User = int(u)
	ev.Ts = int64(ts)
	ev.Sid = p[off : off+int(sidLen)]
	ev.Cat = nil
	off += int(sidLen)
	if kind == KindStart {
		nCat, o, err := uvarint(p, off)
		if err != nil {
			return err
		}
		off = o
		if nCat > uint64(len(p)-off) {
			return ErrTruncated
		}
		cat := er.cat[:0]
		for i := uint64(0); i < nCat; i++ {
			var c uint64
			if c, off, err = uvarint(p, off); err != nil {
				return err
			}
			cat = append(cat, int(c))
		}
		er.cat = cat
		ev.Cat = cat
	}
	er.off = off
	er.left--
	if er.left == 0 && off != len(p) {
		return ErrTruncated
	}
	return nil
}

// PredictRequest is a decoded FPredict payload. Cat aliases the scratch
// passed to ParsePredict.
type PredictRequest struct {
	User int
	Ts   int64
	Cat  []int
}

// ParsePredict decodes a predict payload (after the request ID), appending
// categories to catScratch's backing array.
func ParsePredict(p []byte, catScratch []int) (PredictRequest, []int, error) {
	u, off, err := uvarint(p, 0)
	if err != nil {
		return PredictRequest{}, catScratch, err
	}
	ts, off, err := uvarint(p, off)
	if err != nil {
		return PredictRequest{}, catScratch, err
	}
	nCat, off, err := uvarint(p, off)
	if err != nil {
		return PredictRequest{}, catScratch, err
	}
	if nCat > uint64(len(p)-off) {
		return PredictRequest{}, catScratch, ErrTruncated
	}
	cat := catScratch[:0]
	for i := uint64(0); i < nCat; i++ {
		var c uint64
		if c, off, err = uvarint(p, off); err != nil {
			return PredictRequest{}, cat, err
		}
		cat = append(cat, int(c))
	}
	if off != len(p) {
		return PredictRequest{}, cat, ErrTruncated
	}
	return PredictRequest{User: int(u), Ts: int64(ts), Cat: cat}, cat, nil
}

// PredictUser decodes only the user ID from a predict payload — the
// router's routing fast path.
func PredictUser(p []byte) (int, error) {
	u, _, err := uvarint(p, 0)
	return int(u), err
}

// Ack is a decoded FAck payload.
type Ack struct {
	Status   byte
	Accepted int
	Msg      string
}

// WriteAck frames an event-batch acknowledgement.
func (fw *Writer) WriteAck(reqID uint64, status byte, accepted int, msg string) error {
	var b [8 + 1 + binary.MaxVarintLen64]byte
	binary.LittleEndian.PutUint64(b[:8], reqID)
	b[8] = status
	n := 9 + binary.PutUvarint(b[9:], uint64(accepted))
	if err := fw.Frame(FAck, n+len(msg)); err != nil {
		return err
	}
	if err := fw.Body(b[:n]); err != nil {
		return err
	}
	if len(msg) > 0 {
		if err := fw.Body([]byte(msg)); err != nil {
			return err
		}
	}
	return fw.Trailer()
}

// ParseAck decodes an FAck payload.
func ParseAck(p []byte) (reqID uint64, a Ack, err error) {
	if len(p) < 9 {
		return 0, Ack{}, ErrTruncated
	}
	reqID = binary.LittleEndian.Uint64(p)
	a.Status = p[8]
	acc, off, err := uvarint(p, 9)
	if err != nil {
		return 0, Ack{}, err
	}
	a.Accepted = int(acc)
	if off < len(p) {
		a.Msg = string(p[off:])
	}
	return reqID, a, nil
}

// PredictReply is a decoded FPredictReply payload.
type PredictReply struct {
	Status      byte
	Probability float64
	Precompute  bool
	Degraded    bool
	Msg         string
}

// WritePredictReply frames a predict answer.
func (fw *Writer) WritePredictReply(reqID uint64, pr PredictReply) error {
	var b [18]byte
	binary.LittleEndian.PutUint64(b[:8], reqID)
	b[8] = pr.Status
	if pr.Precompute {
		b[9] |= flagPrecompute
	}
	if pr.Degraded {
		b[9] |= flagDegraded
	}
	binary.LittleEndian.PutUint64(b[10:], math.Float64bits(pr.Probability))
	if err := fw.Frame(FPredictReply, len(b)+len(pr.Msg)); err != nil {
		return err
	}
	if err := fw.Body(b[:]); err != nil {
		return err
	}
	if len(pr.Msg) > 0 {
		if err := fw.Body([]byte(pr.Msg)); err != nil {
			return err
		}
	}
	return fw.Trailer()
}

// ParsePredictReply decodes an FPredictReply payload.
func ParsePredictReply(p []byte) (reqID uint64, pr PredictReply, err error) {
	if len(p) < 18 {
		return 0, PredictReply{}, ErrTruncated
	}
	reqID = binary.LittleEndian.Uint64(p)
	pr.Status = p[8]
	pr.Precompute = p[9]&flagPrecompute != 0
	pr.Degraded = p[9]&flagDegraded != 0
	pr.Probability = math.Float64frombits(binary.LittleEndian.Uint64(p[10:]))
	if len(p) > 18 {
		pr.Msg = string(p[18:])
	}
	return reqID, pr, nil
}

// StatusText names a wire status for error messages.
func StatusText(s byte) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusShed:
		return "shed"
	case StatusDraining:
		return "draining"
	case StatusBadRequest:
		return "bad request"
	case StatusError:
		return "error"
	}
	return fmt.Sprintf("status %d", s)
}
