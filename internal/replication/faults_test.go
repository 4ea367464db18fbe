package replication_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/replication"
	"repro/internal/statestore"
)

// TestFollowerSurvivesCorruptFrame flips a bit on the follower's wire via
// the fault layer: the frame CRC must catch it, the follower must drop the
// connection and clear its epoch (forcing a fresh bootstrap — the stream
// position past a corrupt frame cannot be trusted), and the session after
// that must converge byte-identically.
func TestFollowerSurvivesCorruptFrame(t *testing.T) {
	defer faults.Disarm()
	p := startPrimary(t, statestore.Options{})
	defer p.stop(t)
	for i := 0; i < 30; i++ {
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
	bootstrapsBefore := f.Status().Bootstraps

	// One corrupted read on this follower's link. The reader is idle
	// between frames, so the flipped bit lands on the next frame's bytes
	// and the CRC trailer must reject it.
	if err := faults.Arm(&faults.Plan{Seed: 3, Rules: []faults.Rule{
		{Point: "repl.conn.read", Match: p.ts.URL, Action: faults.ActCorrupt, Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p.ss.Put(fmt.Sprintf("h:%d", 100+i), wireState(8, uint64(i)+51, int64(2000+i)))
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if f.Status().CorruptFrames >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := f.Status()
	if st.CorruptFrames == 0 {
		t.Fatalf("corrupt frame never detected: %+v (counters %v)", st, faults.Counters())
	}
	faults.Disarm()

	waitCaughtUp(t, f, p)
	assertSameStates(t, p.ss, fss)
	if got := f.Status(); got.Bootstraps <= bootstrapsBefore {
		t.Fatalf("follower resumed a tainted stream without re-bootstrapping: %+v", got)
	}
}

// TestFollowerResetMidBootstrapRebootstraps drops the link with a plain
// connection reset (not a corrupt frame) while a retarget bootstrap is
// streaming. The new primary's ring still holds the follower's old
// lastSeq+1, so a follower that committed the new epoch at fBootStart
// would resume a tail onto its wiped, half-imported store. It must instead
// bootstrap again and end byte-identical to the new primary.
func TestFollowerResetMidBootstrapRebootstraps(t *testing.T) {
	defer faults.Disarm()
	p1 := startPrimary(t, statestore.Options{})
	defer p1.stop(t)
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
	before := f.Status()

	// p2 writes more records than p1 did, each to its own key, so its
	// ring holds before.LastSeq+1 and a wrongly resumed tail would never
	// re-deliver the keys of the records at or below before.LastSeq. The
	// bootstrap spans about 60 4 KiB reads (the first one carries the
	// upgrade response), so a reset after 8 lands inside it.
	p2 := startPrimary(t, statestore.Options{})
	defer p2.stop(t)
	for i := 0; i < 4000; i++ {
		p2.ss.Put(fmt.Sprintf("h:%d", 100+i), wireState(8, uint64(i)+50, int64(5000+i)))
	}
	if err := faults.Arm(&faults.Plan{Seed: 5, Rules: []faults.Rule{
		{Point: "repl.conn.read", Match: p2.ts.URL, Action: faults.ActReset, After: 8, Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	f.Retarget(p2.ts.URL)

	deadline := time.Now().Add(10 * time.Second)
	for faults.Counters()["repl.conn.read/"+faults.ActReset] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reset never fired: %+v", f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitCaughtUp(t, f, p2)
	assertSameStates(t, p2.ss, fss)
	if got := f.Status(); got.Bootstraps < before.Bootstraps+2 {
		t.Fatalf("a bootstrap cut by a reset must be restarted (bootstraps %d -> %d)",
			before.Bootstraps, got.Bootstraps)
	}
}
