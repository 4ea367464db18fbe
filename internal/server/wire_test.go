package server

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/serving"
	"repro/internal/wire"
)

// startWireListener attaches a wire listener to srv and returns its
// address. The listener is closed by srv.Shutdown.
func startWireListener(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.ServeWire(l)
	return l.Addr().String()
}

// TestWireValidationAndDraining covers the wire error statuses: malformed
// event batches get a BadRequest ack without mutating state, and a
// shut-down server answers Draining instead of hanging.
func TestWireValidationAndDraining(t *testing.T) {
	m := testModel(t, 16)
	store := serving.NewKVStore()
	srv := New(Options{
		Model: m, Store: store, Threshold: 0.5,
		Lanes: 2, MaxBatch: 4, MaxWait: time.Millisecond, LaneDepth: 16,
	})
	wireAddr := startWireListener(t, srv)

	wcl := wire.NewClient(wireAddr, wire.ClientOptions{})
	defer wcl.Close()

	// Invalid event (ts <= 0) inside a batch: BadRequest, nothing applied.
	bad := wire.AppendStart(nil, 1, 0, "s-bad", nil)
	ack, err := wcl.SendEvents(0, 1, bad)
	if err != nil {
		t.Fatalf("SendEvents: %v", err)
	}
	if ack.Status != wire.StatusBadRequest {
		t.Fatalf("invalid event ack: %+v", ack)
	}
	if len(store.Keys()) != 0 {
		t.Fatal("invalid batch mutated state")
	}

	// Valid batch applies cleanly.
	good := wire.AppendStart(nil, 7, 100, "s-1", []int{1, 2})
	good = wire.AppendAccess(good, 7, 130, "s-1")
	ack, err = wcl.SendEvents(0, 2, good)
	if err != nil {
		t.Fatalf("SendEvents: %v", err)
	}
	if ack.Status != wire.StatusOK || ack.Accepted != 2 {
		t.Fatalf("valid batch ack: %+v", ack)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// After shutdown the listener is closed; a fresh listener on a
	// draining server must answer Draining. Re-attach one to exercise the
	// draining ack path.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.ServeWire(l)
	wcl2 := wire.NewClient(l.Addr().String(), wire.ClientOptions{DialTimeout: 2 * time.Second, CallTimeout: 2 * time.Second})
	defer wcl2.Close()
	ack, err = wcl2.SendEvents(0, 2, bytes.Clone(good))
	if err == nil && ack.Status != wire.StatusDraining {
		t.Fatalf("post-shutdown ack: %+v (err %v)", ack, err)
	}
}
