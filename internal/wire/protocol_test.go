package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"testing/iotest"
)

// buildBatch encodes a canonical event batch: [uvarint count][events].
func buildBatch(evs []Event) []byte {
	b := binary.AppendUvarint(nil, uint64(len(evs)))
	for _, ev := range evs {
		if ev.Start {
			b = AppendStart(b, ev.User, ev.Ts, string(ev.Sid), ev.Cat)
		} else {
			b = AppendAccess(b, ev.User, ev.Ts, string(ev.Sid))
		}
	}
	return b
}

func sampleEvents() []Event {
	return []Event{
		{Start: true, User: 7, Ts: 100, Sid: []byte("u7-s0"), Cat: []int{1, 2, 3}},
		{Start: false, User: 7, Ts: 130, Sid: []byte("u7-s0")},
		{Start: true, User: 4095, Ts: 101, Sid: []byte("u4095-s0"), Cat: nil},
		{Start: true, User: 0, Ts: 1, Sid: []byte("x"), Cat: []int{0}},
		{Start: false, User: 1 << 30, Ts: 1 << 40, Sid: []byte("big-user")},
	}
}

func TestEventBatchRoundTrip(t *testing.T) {
	want := sampleEvents()
	batch := buildBatch(want)

	var er EventReader
	if err := er.Reset(batch); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	var got []Event
	var ev Event
	for er.More() {
		if err := er.Next(&ev); err != nil {
			t.Fatalf("Next: %v", err)
		}
		// Sid and Cat alias reader state; copy like real consumers do.
		got = append(got, Event{
			Start: ev.Start, User: ev.User, Ts: ev.Ts,
			Sid: append([]byte(nil), ev.Sid...),
			Cat: append([]int(nil), ev.Cat...),
		})
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Start != w.Start || g.User != w.User || g.Ts != w.Ts || string(g.Sid) != string(w.Sid) {
			t.Fatalf("event %d: got %+v, want %+v", i, g, w)
		}
		if w.Start && len(w.Cat) != len(g.Cat) {
			t.Fatalf("event %d: cat %v, want %v", i, g.Cat, w.Cat)
		}
		for j := range w.Cat {
			if g.Cat[j] != w.Cat[j] {
				t.Fatalf("event %d: cat %v, want %v", i, g.Cat, w.Cat)
			}
		}
	}
}

// TestEventSpanAgreesWithReader pins the splice fast path against the full
// decoder: both walks must see the same users at the same boundaries —
// the invariant that makes routing-by-span and applying-by-decode agree.
func TestEventSpanAgreesWithReader(t *testing.T) {
	batch := buildBatch(sampleEvents())
	n, off, err := uvarint(batch, 0)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	var er EventReader
	if err := er.Reset(batch); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	var ev Event
	for i := uint64(0); i < n; i++ {
		user, end, err := eventSpan(batch, off)
		if err != nil {
			t.Fatalf("eventSpan at %d: %v", off, err)
		}
		if err := er.Next(&ev); err != nil {
			t.Fatalf("Next: %v", err)
		}
		if user != ev.User {
			t.Fatalf("event %d: span user %d, reader user %d", i, user, ev.User)
		}
		if end != er.off {
			t.Fatalf("event %d: span end %d, reader offset %d", i, end, er.off)
		}
		off = end
	}
	if off != len(batch) {
		t.Fatalf("span walk ended at %d of %d", off, len(batch))
	}
}

func TestEventBatchTruncationEveryByte(t *testing.T) {
	batch := buildBatch(sampleEvents())
	for cut := 0; cut < len(batch); cut++ {
		var er EventReader
		var ev Event
		err := er.Reset(batch[:cut])
		for err == nil && er.More() {
			err = er.Next(&ev)
		}
		// A batch cut anywhere must surface an error: the count promises
		// more events than the bytes deliver, so a clean finish would mean
		// the decoder invented data.
		if err == nil {
			t.Fatalf("cut at %d of %d decoded cleanly", cut, len(batch))
		}
	}
}

func TestAckRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewWriter(bufio.NewWriter(&buf))
	if err := fw.WriteAck(42, StatusShed, 0, "busy"); err != nil {
		t.Fatalf("WriteAck: %v", err)
	}
	if err := fw.WriteAck(43, StatusOK, 17, ""); err != nil {
		t.Fatalf("WriteAck: %v", err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	br := bufio.NewReader(&buf)
	typ, p, err := ReadFrame(br, nil)
	if err != nil || typ != FAck {
		t.Fatalf("frame 1: type %d err %v", typ, err)
	}
	id, a, err := ParseAck(p)
	if err != nil || id != 42 || a.Status != StatusShed || a.Accepted != 0 || a.Msg != "busy" {
		t.Fatalf("ack 1: id %d %+v err %v", id, a, err)
	}
	typ, p, err = ReadFrame(br, p[:cap(p)])
	if err != nil || typ != FAck {
		t.Fatalf("frame 2: type %d err %v", typ, err)
	}
	id, a, err = ParseAck(p)
	if err != nil || id != 43 || a.Status != StatusOK || a.Accepted != 17 || a.Msg != "" {
		t.Fatalf("ack 2: id %d %+v err %v", id, a, err)
	}
}

func TestPredictReplyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewWriter(bufio.NewWriter(&buf))
	in := PredictReply{Status: StatusOK, Probability: 0.731, Precompute: true, Degraded: true, Msg: "m"}
	if err := fw.WritePredictReply(99, in); err != nil {
		t.Fatalf("WritePredictReply: %v", err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	typ, p, err := ReadFrame(bufio.NewReader(&buf), nil)
	if err != nil || typ != FPredictReply {
		t.Fatalf("frame: type %d err %v", typ, err)
	}
	id, out, err := ParsePredictReply(p)
	if err != nil || id != 99 {
		t.Fatalf("reply: id %d err %v", id, err)
	}
	if out != in {
		t.Fatalf("reply: got %+v, want %+v", out, in)
	}
	if math.Float64bits(out.Probability) != math.Float64bits(in.Probability) {
		t.Fatalf("probability bits differ")
	}
}

func TestPredictRoundTrip(t *testing.T) {
	payload := AppendPredict(nil, 123, 456, []int{9, 8, 7})
	pr, _, err := ParsePredict(payload, nil)
	if err != nil {
		t.Fatalf("ParsePredict: %v", err)
	}
	if pr.User != 123 || pr.Ts != 456 || len(pr.Cat) != 3 || pr.Cat[0] != 9 || pr.Cat[2] != 7 {
		t.Fatalf("got %+v", pr)
	}
	if u, err := PredictUser(payload); err != nil || u != 123 {
		t.Fatalf("PredictUser: %d %v", u, err)
	}
	if _, _, err := ParsePredict(payload[:len(payload)-1], nil); err == nil {
		t.Fatal("truncated predict decoded cleanly")
	}
	if _, _, err := ParsePredict(append(payload, 0), nil); err == nil {
		t.Fatal("predict with trailing garbage decoded cleanly")
	}
}

func TestHelloHandshake(t *testing.T) {
	var buf bytes.Buffer
	fw := NewWriter(bufio.NewWriter(&buf))
	if err := fw.WriteHello(); err != nil {
		t.Fatalf("WriteHello: %v", err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	typ, p, err := ReadFrame(bufio.NewReader(&buf), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if err := CheckHello(typ, p); err != nil {
		t.Fatalf("CheckHello: %v", err)
	}
	if err := CheckHello(typ, []byte{Version + 1}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("version mismatch not detected: %v", err)
	}
	if err := CheckHello(FAck, p); err == nil {
		t.Fatal("wrong frame type accepted as hello")
	}
}

// frameStream writes a representative frame sequence and returns the raw
// bytes plus the expected (type, payload) sequence.
func frameStream(t *testing.T) ([]byte, []byte, [][2][]byte) {
	t.Helper()
	var buf bytes.Buffer
	fw := NewWriter(bufio.NewWriter(&buf))
	batch := buildBatch(sampleEvents())
	write := func(err error) {
		if err != nil {
			t.Fatalf("writing stream: %v", err)
		}
	}
	write(fw.WriteHello())
	write(fw.WriteRequest(FEvents, 1, batch))
	write(fw.WriteRequest(FPredict, 2, AppendPredict(nil, 7, 100, []int{1})))
	write(fw.WriteAck(1, StatusOK, len(sampleEvents()), ""))
	write(fw.WritePredictReply(2, PredictReply{Status: StatusOK, Probability: 0.5}))
	write(fw.Flush())
	raw := append([]byte(nil), buf.Bytes()...)

	var frames [][2][]byte
	br := bufio.NewReader(bytes.NewReader(raw))
	for {
		typ, p, err := ReadFrame(br, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reading back stream: %v", err)
		}
		frames = append(frames, [2][]byte{{typ}, append([]byte(nil), p...)})
	}
	return raw, batch, frames
}

// TestWireEveryTruncationBoundary cuts a valid frame stream at every byte
// offset and asserts the reader never misparses: every frame that comes
// out before the error must be byte-identical to a frame that was written,
// and the cut always surfaces as an error — the clean connection-drop
// signal the client's reconnect path keys on. No prefix may decode to a
// frame that was never sent.
func TestWireEveryTruncationBoundary(t *testing.T) {
	raw, _, want := frameStream(t)
	for cut := 0; cut < len(raw); cut++ {
		br := bufio.NewReader(bytes.NewReader(raw[:cut]))
		var buf []byte
		n := 0
		for {
			typ, p, err := ReadFrame(br, buf)
			if err != nil {
				// Any error is a clean drop; what must never happen is a
				// frame beyond the fully-delivered prefix.
				break
			}
			buf = p[:cap(p)]
			if n >= len(want) {
				t.Fatalf("cut %d: decoded %d frames, only %d were sent", cut, n+1, len(want))
			}
			if typ != want[n][0][0] || !bytes.Equal(p, want[n][1]) {
				t.Fatalf("cut %d: frame %d misparsed", cut, n)
			}
			n++
		}
		// A cut strictly inside frame k must deliver exactly frames 0..k-1.
		// Verify monotonicity: the number of whole frames the prefix holds.
		whole := wholeFrames(raw[:cut], want)
		if n != whole {
			t.Fatalf("cut %d: decoded %d frames, prefix holds %d whole frames", cut, n, whole)
		}
	}
}

// wholeFrames counts how many of the expected frames fit entirely within
// prefix, from the framed sizes (5-byte header + payload + 4-byte CRC).
func wholeFrames(prefix []byte, frames [][2][]byte) int {
	off, n := 0, 0
	for _, f := range frames {
		off += 5 + len(f[1]) + 4
		if off > len(prefix) {
			break
		}
		n++
	}
	return n
}

// TestWireEveryBitFlip flips one bit at every byte offset of a framed
// message and asserts the CRC (or a length/short-read check) rejects it —
// corruption is connection-fatal, never silently applied.
func TestWireEveryBitFlip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewWriter(bufio.NewWriter(&buf))
	if err := fw.WriteRequest(FEvents, 7, buildBatch(sampleEvents())); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	raw := buf.Bytes()
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 1 << (i % 8)
		_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(mut)), nil)
		if err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	hdr := make([]byte, 5)
	hdr[0] = FEvents
	binary.LittleEndian.PutUint32(hdr[1:], MaxFramePayload+1)
	_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr)), nil)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("oversize frame not rejected before the read: %v", err)
	}
}

func FuzzReadFrame(f *testing.F) {
	raw, _, _ := frameStreamFuzzSeed()
	f.Add(raw)
	f.Add([]byte{})
	f.Add([]byte{FHello, 1, 0, 0, 0, Version})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		typ, p, err := ReadFrame(br, nil)
		if err != nil {
			return
		}
		// Anything accepted must survive a write/read round trip intact.
		var buf bytes.Buffer
		fw := NewWriter(bufio.NewWriter(&buf))
		if err := fw.Frame(typ, len(p)); err != nil {
			t.Fatalf("re-frame: %v", err)
		}
		if err := fw.Body(p); err != nil {
			t.Fatalf("re-body: %v", err)
		}
		if err := fw.Trailer(); err != nil {
			t.Fatalf("re-trailer: %v", err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatalf("re-flush: %v", err)
		}
		typ2, p2, err := ReadFrame(bufio.NewReader(&buf), nil)
		if err != nil || typ2 != typ || !bytes.Equal(p2, p) {
			t.Fatalf("round trip diverged: %v", err)
		}
	})
}

func FuzzEventReader(f *testing.F) {
	f.Add(buildBatch(sampleEvents()))
	f.Add(binary.AppendUvarint(nil, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, batch []byte) {
		var er EventReader
		var ev Event
		if err := er.Reset(batch); err != nil {
			return
		}
		// The full decoder and the splice fast path must agree on every
		// boundary and user — the invariant routing correctness rides on.
		_, off, err := uvarint(batch, 0)
		if err != nil {
			t.Fatalf("Reset accepted a batch uvarint rejects: %v", err)
		}
		for er.More() {
			if err := er.Next(&ev); err != nil {
				if _, _, serr := eventSpan(batch, off); serr == nil {
					// eventSpan may accept an event whose tail the full
					// decoder rejects only if the error is elsewhere
					// (trailing garbage after the last event).
					if er.left != 0 {
						t.Fatalf("reader rejected (%v) what eventSpan accepted at %d", err, off)
					}
				}
				return
			}
			user, end, serr := eventSpan(batch, off)
			if serr != nil {
				t.Fatalf("eventSpan rejected (%v) what reader accepted at %d", serr, off)
			}
			if user != ev.User || end != er.off {
				t.Fatalf("span (%d,%d) disagrees with reader (%d,%d)", user, end, ev.User, er.off)
			}
			off = end
		}
	})
}

// frameStreamFuzzSeed is frameStream without the testing.T, for f.Add.
func frameStreamFuzzSeed() ([]byte, []byte, error) {
	var buf bytes.Buffer
	fw := NewWriter(bufio.NewWriter(&buf))
	batch := buildBatch(sampleEvents())
	var err error
	if e := fw.WriteHello(); e != nil {
		err = e
	}
	if e := fw.WriteRequest(FEvents, 1, batch); e != nil {
		err = e
	}
	if e := fw.Flush(); e != nil {
		err = e
	}
	return buf.Bytes(), batch, err
}

// readFrameCutErr is the error ReadFrame must return when a stream ends
// (io.EOF) or fails (any other error) after `off` bytes of a frame whose
// payload is n bytes long. A clean end at the header, payload-start or
// trailer-start boundary is io.EOF; an end inside the header, the payload
// or the trailer is io.ErrUnexpectedEOF. The follower's re-bootstrap rule
// and the router's error taxonomy both branch on that distinction. A
// non-EOF transport error passes through as is at every offset.
func readFrameCutErr(off, n int, cause error) error {
	if cause != io.EOF {
		return cause
	}
	switch {
	case off == 0, off == 5, off == 5+n:
		return io.EOF
	default:
		return io.ErrUnexpectedEOF
	}
}

// TestReadFrameErrorAtEveryCut truncates a frame stream — including a
// zero-length frame, whose payload-start and trailer-start boundaries
// coincide — at every byte, and asserts the exact error value ReadFrame
// returns there, for a clean EOF, for a transport error, and for a source
// that delivers one byte per read.
func TestReadFrameErrorAtEveryCut(t *testing.T) {
	raw, _, frames := frameStream(t)
	var extra bytes.Buffer
	fw := NewWriter(bufio.NewWriter(&extra))
	if err := fw.Frame(FAck, 0); err != nil {
		t.Fatal(err)
	}
	if err := fw.Trailer(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw = append(raw, extra.Bytes()...)
	frames = append(frames, [2][]byte{{FAck}, nil})

	boom := errors.New("connection reset")
	sources := []struct {
		name  string
		cause error
		src   func(b []byte) io.Reader
	}{
		{"eof", io.EOF, func(b []byte) io.Reader { return bytes.NewReader(b) }},
		{"one-byte", io.EOF, func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
		{"transport-error", boom, func(b []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(b), iotest.ErrReader(boom))
		}},
	}
	for _, s := range sources {
		for cut := 0; cut <= len(raw); cut++ {
			br := bufio.NewReader(s.src(raw[:cut]))
			var buf []byte
			start := 0
			var err error
			k := 0
			for ; ; k++ {
				var p []byte
				_, p, err = ReadFrame(br, buf)
				if err != nil {
					break
				}
				buf = p[:cap(p)]
				start += 5 + len(p) + 4
			}
			n := 0
			if k < len(frames) {
				n = len(frames[k][1])
			}
			if want := readFrameCutErr(cut-start, n, s.cause); err != want {
				t.Fatalf("%s: cut %d (offset %d of frame %d, payload %d): got %v, want %v",
					s.name, cut, cut-start, k, n, err, want)
			}
		}
	}
}
