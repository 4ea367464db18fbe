package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// startAckReplica serves the wire protocol on a fresh port and acks every
// event frame as fully accepted without applying it; it allocates nothing
// per frame, so a process-wide allocation count sees only the router and
// the client. It stops when the listener closes and the router drops its
// outbound connections.
func startAckReplica(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go serveAcks(conn)
		}
	}()
	return l.Addr().String()
}

func serveAcks(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	fw := wire.NewWriter(bufio.NewWriter(conn))
	if wire.AcceptHello(br, fw) != nil {
		return
	}
	var buf []byte
	for {
		typ, p, err := wire.ReadFrame(br, buf)
		if err != nil || typ != wire.FEvents || len(p) < 9 {
			return
		}
		buf = p[:cap(p)]
		n, _ := binary.Uvarint(p[8:])
		if fw.WriteAck(binary.LittleEndian.Uint64(p), wire.StatusOK, int(n), "") != nil || fw.Flush() != nil {
			return
		}
	}
}

// TestRouteWireEventsAllocs pins the router's event fan-out at steady
// state: a post whose events belong to three owners is spliced, sent to
// the first owner on the connection's goroutine and to the other two by
// the connection's long-lived forwarders, and acked — with no allocation
// anywhere in the process. The forwarders end with the connection; the
// package's leakcheck fails the run if they do not.
func TestRouteWireEventsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	urls := []string{"http://replica-a", "http://replica-b", "http://replica-c"}
	wireAddrs := map[string]string{}
	for _, u := range urls {
		wireAddrs[u] = startAckReplica(t)
	}
	router := newTestRouter(t, Options{Replicas: urls, WireAddrs: wireAddrs})
	routerWire := startWireRouter(t, router)

	// Two sessions per owner, each a start and an access.
	ring := router.Ring()
	perOwner := make([]int, ring.NumReplicas())
	var events []byte
	count := 0
	for u := 0; count < 4*len(perOwner); u++ {
		o := ring.OwnerIndexOfUser(u)
		if perOwner[o] == 2 {
			continue
		}
		perOwner[o]++
		sid := fmt.Sprintf("s%d", u)
		events = wire.AppendStart(events, u, 100, sid, []int{1, 2})
		events = wire.AppendAccess(events, u, 101, sid)
		count += 2
	}

	cl := wire.NewClient(routerWire, wire.ClientOptions{DialTimeout: 5 * time.Second, CallTimeout: 5 * time.Second})
	defer cl.Close()
	var sendErr error
	send := func() {
		ack, err := cl.SendEvents(0, count, events)
		if err == nil && (ack.Status != wire.StatusOK || ack.Accepted != count) {
			err = fmt.Errorf("ack %+v, want OK with %d accepted", ack, count)
		}
		if err != nil && sendErr == nil {
			sendErr = err
		}
	}
	for range 100 { // dial every hop, grow buffers, start the forwarders
		send()
	}
	allocs := testing.AllocsPerRun(200, send)
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if allocs != 0 {
		t.Errorf("three-owner post through the router: %v allocs/post, want 0", allocs)
	}
}
