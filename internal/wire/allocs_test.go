package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// TestFrameAllocs pins the codec's allocation floor: every Writer method
// and Flush write from the Writer's own scratch, and ReadFrame reads the
// header and trailer in place, so with a warm payload buffer neither side
// allocates per frame.
func TestFrameAllocs(t *testing.T) {
	batch := buildBatch(sampleEvents())
	predict := AppendPredict(nil, 7, 100, []int{1, 2})
	fw := NewWriter(bufio.NewWriter(io.Discard))
	writes := []struct {
		name string
		fn   func() error
	}{
		{"Frame+Body+Trailer", func() error {
			if err := fw.Frame(FAck, len(batch)); err != nil {
				return err
			}
			if err := fw.Body(batch); err != nil {
				return err
			}
			return fw.Trailer()
		}},
		{"WriteRequest", func() error { return fw.WriteRequest(FPredict, 9, predict) }},
		{"WriteHello", fw.WriteHello},
		{"WriteEvents", func() error { return fw.WriteEvents(9, len(sampleEvents()), batch[1:]) }},
		{"WriteAck", func() error { return fw.WriteAck(9, StatusOK, 1<<40, "") }},
		{"WritePredictReply", func() error {
			return fw.WritePredictReply(9, PredictReply{Status: StatusOK, Probability: 0.25, Precompute: true})
		}},
		{"Flush", fw.Flush},
	}
	for _, w := range writes {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := w.fn(); err != nil {
				panic(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", w.name, allocs)
		}
	}

	raw, _, frames := frameStream(t)
	src := bytes.NewReader(raw)
	br := bufio.NewReader(src)
	var buf []byte
	readAll := func() {
		src.Reset(raw)
		br.Reset(src)
		for range frames {
			_, p, err := ReadFrame(br, buf)
			if err != nil {
				panic(err)
			}
			buf = p[:cap(p)]
		}
	}
	readAll() // warm the payload buffer
	if allocs := testing.AllocsPerRun(100, readAll); allocs != 0 {
		t.Errorf("ReadFrame with a warm buffer: %v allocs per %d frames, want 0", allocs, len(frames))
	}
}

// TestClientRoundTripAllocs pins the pooled client's steady state: reply
// slots (channel and timer) are recycled per connection, so a round trip
// against an alloc-free peer allocates nothing — on either end, since the
// count is process-wide.
func TestClientRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s := newTestWireServer(t, echoHandler)
	cl := NewClient(s.addr(), testClientOptions())
	defer cl.Close()
	batch := buildBatch(sampleEvents())
	events := batch[1:] // one-byte count prefix
	predict := AppendPredict(nil, 31, 100, nil)
	send := func() {
		if _, err := cl.SendEvents(0, len(sampleEvents()), events); err != nil {
			panic(err)
		}
	}
	ask := func() {
		if pr, err := cl.SendPredict(0, predict, 0); err != nil || pr.Probability != 31 {
			panic(err)
		}
	}
	for i := 0; i < 100; i++ { // dial, grow buffers, fill the pool
		send()
		ask()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Errorf("SendEvents: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, ask); allocs != 0 {
		t.Errorf("SendPredict: %v allocs/op, want 0", allocs)
	}
}

// TestClientLateReplyAfterTimeout has the server answer predicts after
// delays around the caller's timeout, so replies land before, at and after
// the moment each call gives up. A timed-out call may already have been
// handed its reply by the reader; if its slot were recycled, a later call
// on the connection would receive that stale reply. Every call must either
// time out or get its own answer.
func TestClientLateReplyAfterTimeout(t *testing.T) {
	const timeout = time.Millisecond
	var wmu sync.Mutex
	s := newTestWireServer(t, func(s *testWireServer, c int, fw *Writer, typ byte, p []byte) bool {
		if typ != FPredict {
			return false
		}
		reqID := binary.LittleEndian.Uint64(p)
		pr, _, err := ParsePredict(p[8:], nil)
		if err != nil {
			return false
		}
		delay := time.Duration(pr.User%5) * timeout / 2
		go func() {
			time.Sleep(delay)
			wmu.Lock()
			defer wmu.Unlock()
			fw.WritePredictReply(reqID, PredictReply{Status: StatusOK, Probability: float64(pr.User)})
			fw.Flush()
		}()
		return true
	})
	opts := testClientOptions()
	opts.CallTimeout = timeout
	cl := NewClient(s.addr(), opts)
	defer cl.Close()

	timeouts, answered := 0, 0
	for user := 1; user <= 400; user++ {
		pr, err := cl.SendPredict(0, AppendPredict(nil, user, 100, nil), 0)
		if errors.Is(err, ErrCallTimeout) {
			timeouts++
			continue
		}
		if err != nil {
			t.Fatalf("user %d: %v", user, err)
		}
		if pr.Probability != float64(user) {
			t.Fatalf("user %d got the reply for user %v", user, pr.Probability)
		}
		answered++
	}
	if timeouts == 0 {
		t.Fatal("no call timed out: the delays did not straddle the timeout")
	}
	t.Logf("%d timeouts, %d answered", timeouts, answered)
}
