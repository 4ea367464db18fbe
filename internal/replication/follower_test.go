package replication

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/statestore"
	"repro/internal/wire"
)

// fakePrimary answers the subscribe upgrade on a loopback listener and
// hands session n (counted from 0) to serve after reporting its
// subscribe request on subs. It scripts the frames a real Source would
// never send.
type fakePrimary struct {
	ln   net.Listener
	subs chan subscribeReq
	wg   sync.WaitGroup
}

func startFakePrimary(t *testing.T, serve func(n int, r *bufio.Reader, fw *frameWriter)) *fakePrimary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// subs holds more sessions than any test here opens, so a session
	// never blocks reporting its subscribe after the test stopped reading.
	fp := &fakePrimary{ln: ln, subs: make(chan subscribeReq, 16)}
	fp.wg.Add(1)
	go func() {
		defer fp.wg.Done()
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fp.wg.Add(1)
			go func() {
				defer fp.wg.Done()
				defer conn.Close()
				fp.session(n, conn, serve)
			}()
		}
	}()
	return fp
}

func (fp *fakePrimary) url() string { return "http://" + fp.ln.Addr().String() }

func (fp *fakePrimary) session(n int, conn net.Conn, serve func(int, *bufio.Reader, *frameWriter)) {
	r := bufio.NewReader(conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		if strings.TrimSpace(line) == "" {
			break
		}
	}
	w := bufio.NewWriter(conn)
	fmt.Fprintf(w, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: %s\r\nConnection: Upgrade\r\n\r\n", UpgradeProtocol)
	if w.Flush() != nil {
		return
	}
	typ, p, err := wire.ReadFrame(r, nil)
	if err != nil || typ != fSubscribe {
		return
	}
	var req subscribeReq
	if json.Unmarshal(p, &req) != nil {
		return
	}
	fp.subs <- req
	serve(n, r, &frameWriter{Writer: wire.NewWriter(w)})
}

// nextSubscribe waits for the next session's subscribe request.
func (fp *fakePrimary) nextSubscribe(t *testing.T) subscribeReq {
	t.Helper()
	select {
	case req := <-fp.subs:
		return req
	case <-time.After(10 * time.Second):
		t.Fatal("follower never subscribed")
		return subscribeReq{}
	}
}

// close stops accepting; sessions end once the follower closes its side.
func (fp *fakePrimary) close() {
	fp.ln.Close()
	fp.wg.Wait()
}

// idle parks a session until the follower hangs up.
func idle(r *bufio.Reader) { io.Copy(io.Discard, r) }

func memFollower(t *testing.T, primary string) *Follower {
	t.Helper()
	st, err := statestore.Open(statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return NewFollower(st, primary)
}

// TestFollowerOversizeFrameRebootstraps covers the size half of the
// re-bootstrap rule: a length prefix above wire.MaxFramePayload means the
// stream position is lost, so the follower must count a corrupt frame and
// subscribe again with no epoch, which makes the primary bootstrap it.
func TestFollowerOversizeFrameRebootstraps(t *testing.T) {
	fp := startFakePrimary(t, func(n int, r *bufio.Reader, fw *frameWriter) {
		if n == 0 {
			if fw.writeJSON(fTailStart, hello{Epoch: "e1"}) != nil ||
				fw.Frame(fRecord, wire.MaxFramePayload+1) != nil || fw.Flush() != nil {
				return
			}
		}
		idle(r)
	})
	defer fp.close()
	f := memFollower(t, fp.url())
	f.Start()
	defer f.Stop()

	if first := fp.nextSubscribe(t); first.Epoch != "" {
		t.Fatalf("a fresh follower subscribed with epoch %q", first.Epoch)
	}
	next := fp.nextSubscribe(t)
	if next.Epoch != "" || next.Seq != 1 {
		t.Fatalf("after an oversize frame the follower resumed at epoch %q seq %d; want a bootstrap", next.Epoch, next.Seq)
	}
	if st := f.Status(); st.CorruptFrames != 1 {
		t.Fatalf("CorruptFrames = %d, want 1 (%+v)", st.CorruptFrames, st)
	}
}

// TestPromoteDuringBootstrapReportsOpen stops a follower between
// fBootStart and fBootEnd: the store is wiped and partly imported, so
// Promote must say so instead of handing it over as a primary.
func TestPromoteDuringBootstrapReportsOpen(t *testing.T) {
	fp := startFakePrimary(t, func(n int, r *bufio.Reader, fw *frameWriter) {
		if fw.writeJSON(fBootStart, hello{Epoch: "e2"}) == nil && fw.Flush() == nil {
			idle(r)
		}
	})
	defer fp.close()
	f := memFollower(t, fp.url())
	f.Start()
	defer f.Stop()

	fp.nextSubscribe(t)
	deadline := time.Now().Add(10 * time.Second)
	for f.Status().Bootstraps == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("bootstrap never started: %+v", f.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := f.Promote(); !errors.Is(err, ErrBootstrapOpen) {
		t.Fatalf("Promote inside a bootstrap returned %v, want ErrBootstrapOpen", err)
	}
	if !f.Status().Promoted {
		t.Fatal("Promote must still stop replication")
	}
}
