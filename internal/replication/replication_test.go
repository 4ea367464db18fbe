// Tests live in an external package so they can mount the real HTTP
// handler (internal/server imports replication; importing it back here
// would cycle). Everything below drives the production path: POST
// /replicate/subscribe, hijack, upgrade, frames.
package replication_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/statestore"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func testModel(t *testing.T) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.HiddenDim = 8
	cfg.Seed = 7
	return core.New(synth.MobileTabSchema(), cfg)
}

func wireState(dim int, seed uint64, ts int64) []byte {
	rng := tensor.NewRNG(seed)
	h := tensor.NewVector(dim)
	rng.FillUniform(h, -1, 1)
	return serving.EncodeHiddenInto(nil, h, ts)
}

// primary is one replication source mounted on the real server handler.
type primary struct {
	ss *statestore.Store
	ts *httptest.Server
	sv *server.Server
}

func startPrimary(t *testing.T, opts statestore.Options) *primary {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	ss, err := statestore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	sv := server.New(server.Options{
		Model: testModel(t), Store: ss, State: ss, Threshold: 0.5,
		Lanes: 1, MaxBatch: 4, MaxWait: time.Millisecond,
	})
	return &primary{ss: ss, ts: httptest.NewServer(sv.Handler()), sv: sv}
}

func (p *primary) stop(t *testing.T) {
	t.Helper()
	p.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.sv.Shutdown(ctx); err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}
	if err := p.ss.Close(); err != nil {
		t.Fatal(err)
	}
}

// exportAll snapshots a store's full stored-representation contents.
func exportAll(t *testing.T, s *statestore.Store) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := s.Export(func(string) bool { return true }, func(key string, stored []byte) error {
		out[key] = append([]byte(nil), stored...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// waitCaughtUp polls until the follower's applied position reaches the
// primary's newest committed record.
func waitCaughtUp(t *testing.T, f *replication.Follower, p *primary) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := f.Status(); st.LastSeq >= p.ss.WALSeq() && st.Connected {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never caught up: follower %+v, primary wal-seq %d",
		f.Status(), p.ss.WALSeq())
}

// sameStates reports whether two stores hold byte-identical entries.
func sameStates(t *testing.T, p, f *statestore.Store) bool {
	t.Helper()
	want, got := exportAll(t, p), exportAll(t, f)
	if len(want) != len(got) {
		return false
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || !bytes.Equal(v, g) {
			return false
		}
	}
	return true
}

// waitSameStates polls until the follower's contents equal the (quiesced)
// primary's — the convergence wait for tests whose follower position is
// not monotonic across the scenario (retargeting resets it).
func waitSameStates(t *testing.T, p, f *statestore.Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if sameStates(t, p, f) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("follower never converged to the primary's states")
}

// assertSameStates requires the two stores to hold byte-identical entries —
// the property the Import-seam replication path guarantees.
func assertSameStates(t *testing.T, p *statestore.Store, f *statestore.Store) {
	t.Helper()
	want, got := exportAll(t, p), exportAll(t, f)
	if len(want) != len(got) {
		t.Fatalf("follower holds %d states, primary %d", len(got), len(want))
	}
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("state %s missing from the follower", k)
		}
		if !bytes.Equal(v, g) {
			t.Fatalf("state %s not byte-identical on the follower", k)
		}
	}
}

// TestFollowerBootstrapThenTail is the basic session shape: a late joiner
// bootstraps the existing states, then tails live puts and deletes to
// byte-identical convergence.
func TestFollowerBootstrapThenTail(t *testing.T) {
	p := startPrimary(t, statestore.Options{})
	defer p.stop(t)
	for i := 0; i < 50; i++ {
		p.ss.Put(fmt.Sprintf("h:%d", i), wireState(8, uint64(i)+1, int64(1000+i)))
	}

	fss, err := statestore.Open(statestore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer fss.Close()
	f := replication.NewFollower(fss, p.ts.URL)
	f.Start()
	defer f.Stop()
	waitCaughtUp(t, f, p)
	if st := f.Status(); st.Bootstraps == 0 {
		t.Fatal("late joiner did not bootstrap")
	}
	assertSameStates(t, p.ss, fss)

	// Live tail: new puts, overwrites, and deletes all flow through.
	for i := 0; i < 30; i++ {
		p.ss.Put(fmt.Sprintf("h:%d", 100+i), wireState(8, uint64(i)+77, int64(2000+i)))
	}
	p.ss.Put("h:0", wireState(8, 999, 3000))
	p.ss.Delete("h:1")
	waitCaughtUp(t, f, p)
	assertSameStates(t, p.ss, fss)
}

// TestFollowerEveryJoinBoundary is the replication analogue of the WAL
// crash test TestCrashRecoveryEveryTruncationBoundary: a follower joining
// at EVERY position of the primary's write sequence — before the first
// record, mid-stream, straddling snapshot rotations, after a tail-ring
// overflow — must converge to byte-identical state. The tiny tail buffer
// forces some joins through the bootstrap path and lets others tail
// directly, and SnapshotEvery=8 rotates the WAL repeatedly mid-session.
func TestFollowerEveryJoinBoundary(t *testing.T) {
	const n = 24
	for join := 0; join <= n; join++ {
		t.Run(fmt.Sprintf("join=%d", join), func(t *testing.T) {
			p := startPrimary(t, statestore.Options{
				SnapshotEvery: 8, TailBuffer: 4,
			})
			defer p.stop(t)
			put := func(i int) {
				p.ss.Put(fmt.Sprintf("h:%d", i%10), wireState(8, uint64(i)+1, int64(1000+i)))
			}
			for i := 0; i < join; i++ {
				put(i)
			}

			fss, err := statestore.Open(statestore.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer fss.Close()
			f := replication.NewFollower(fss, p.ts.URL)
			f.Start()
			defer f.Stop()

			for i := join; i < n; i++ {
				put(i)
			}
			p.ss.Delete("h:3")
			waitCaughtUp(t, f, p)
			assertSameStates(t, p.ss, fss)
		})
	}
}

// TestFollowerRetargetAcrossPrimaries is the re-replication path: a
// follower whose primary is replaced (new incarnation, new epoch) must
// detect the epoch change, re-bootstrap, and drop states the old primary
// had that the new one does not — no ghosts.
func TestFollowerRetargetAcrossPrimaries(t *testing.T) {
	p1 := startPrimary(t, statestore.Options{})
	for i := 0; i < 20; i++ {
		p1.ss.Put(fmt.Sprintf("h:%d", i), wireState(8, uint64(i)+1, int64(1000+i)))
	}

	fss, err := statestore.Open(statestore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer fss.Close()
	f := replication.NewFollower(fss, p1.ts.URL)
	f.Start()
	defer f.Stop()
	waitCaughtUp(t, f, p1)

	// The new primary holds a DIFFERENT keyset: h:100.. only.
	p2 := startPrimary(t, statestore.Options{})
	defer p2.stop(t)
	for i := 0; i < 10; i++ {
		p2.ss.Put(fmt.Sprintf("h:%d", 100+i), wireState(8, uint64(i)+50, int64(5000+i)))
	}
	p1.stop(t)
	f.Retarget(p2.ts.URL)
	waitSameStates(t, p2.ss, fss)
	assertSameStates(t, p2.ss, fss)
	if st := f.Status(); st.Bootstraps < 2 {
		t.Fatalf("epoch change must force a re-bootstrap (bootstraps=%d)", st.Bootstraps)
	}
}

// TestPromoteStopsReplication is the failover cutover contract: once
// Promote returns, no replicated record lands, so writes the new ring
// routes at the promoted follower cannot interleave with the dead
// primary's tail.
func TestPromoteStopsReplication(t *testing.T) {
	p := startPrimary(t, statestore.Options{})
	defer p.stop(t)
	for i := 0; i < 10; i++ {
		p.ss.Put(fmt.Sprintf("h:%d", i), wireState(8, uint64(i)+1, int64(1000+i)))
	}

	fss, err := statestore.Open(statestore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer fss.Close()
	f := replication.NewFollower(fss, p.ts.URL)
	f.Start()
	waitCaughtUp(t, f, p)

	last, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if st := f.Status(); !st.Promoted {
		t.Fatal("status must report promoted")
	}
	if last != f.Status().LastSeq {
		t.Fatal("Promote must return the final applied position")
	}
	frozen := exportAll(t, fss)

	p.ss.Put("h:999", wireState(8, 999, 9000))
	time.Sleep(100 * time.Millisecond) // would be plenty for a live tail
	if got := exportAll(t, fss); len(got) != len(frozen) {
		t.Fatal("a replicated record landed after Promote returned")
	}
	f.Stop()
}

// TestSourceStatusTracksSubscriber checks the observability half: the
// source reports its epoch, wal position and the subscriber's ack
// progress; the follower reports its lag inputs.
func TestSourceStatusTracksSubscriber(t *testing.T) {
	p := startPrimary(t, statestore.Options{})
	defer p.stop(t)
	for i := 0; i < 5; i++ {
		p.ss.Put(fmt.Sprintf("h:%d", i), wireState(8, uint64(i)+1, int64(1000+i)))
	}
	fss, err := statestore.Open(statestore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer fss.Close()
	f := replication.NewFollower(fss, p.ts.URL)
	f.Start()
	defer f.Stop()
	waitCaughtUp(t, f, p)

	resp, err := http.Get(p.ts.URL + "/replicate/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Source *replication.SourceStatus `json:"source"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Source == nil || status.Source.Epoch == "" {
		t.Fatal("source status missing")
	}
	if status.Source.WALSeq != p.ss.WALSeq() {
		t.Fatalf("source wal_seq %d, store %d", status.Source.WALSeq, p.ss.WALSeq())
	}
	if len(status.Source.Subscribers) != 1 {
		t.Fatalf("%d subscribers, want 1", len(status.Source.Subscribers))
	}
	if st := f.Status(); st.Epoch != status.Source.Epoch {
		t.Fatalf("follower epoch %s, source %s", st.Epoch, status.Source.Epoch)
	}
}
