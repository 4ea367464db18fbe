package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/nn"
)

// Frozen constants. Nothing here is calibrated at run time: a run is a
// fixed number of sessions, so parent and change process identical work.
const (
	// refSeconds is the -seconds value the segment sizes below were frozen
	// for on the 2-core reference box (BENCHMARK.json run_seconds);
	// refSegments is how many timed segments that run has.
	refSeconds  = 20
	refSegments = 7
	minSegments = 3

	// tracedSegments is the length of the decorated part of a traced run,
	// which follows one undecorated segment (the overhead baseline).
	tracedSegments = 2

	// setupRounds is how many complete set-ups a run performs; setup_s is
	// their median and the last one carries the timed segments.
	setupRounds = 5

	// precheckSessions is the prefix replayed through the workload's own
	// configuration and through sequential in-process replay.
	precheckSessions = 5000

	// slotsPerConn is the in-flight window of an event connection: each
	// slot carries a disjoint set of users and has at most one post in
	// flight, so a 429 resent in place can never reorder one user's events.
	slotsPerConn = 8

	// predictRing is how many distinct predict requests a closed-loop
	// sampler cycles through per segment.
	predictRing = 4096

	// Open-loop traffic models independent users, so it is spread over a
	// fixed number of connections whatever the machine: a reply that waits
	// out the batcher's MaxWait must not queue the arrivals behind it on
	// the generator's side. The senders sleep most of the time.
	openEventConns   = 8
	openPredictConns = 16

	// The speed probe: speedProbeRounds loopback round trips, whose CPU per
	// call reads speedProbeRefNs on the reference box when it is quiet.
	speedProbeRounds = 3000
	speedProbeRefNs  = 2100

	maxBatch = 32
	maxWait  = 2 * time.Millisecond
	lanes    = 2
)

type storeKind int

const (
	storeSharded  storeKind = iota // serving.ShardedKVStore(16)
	storeVolatile                  // statestore.Open{} without a directory
	storeWAL                       // durable statestore + one follower
)

// workloadSpec is one frozen traffic mix and the program configuration it
// is sent to.
type workloadSpec struct {
	Name string
	Why  string

	HTTP bool // data plane is HTTP/JSON; otherwise the binary wire protocol
	Open bool // open loop at fixed rates; otherwise closed loop

	Dim      int
	Tier     nn.PrecisionTier
	Store    storeKind
	Replicas int // >0: that many servers behind a cluster.Router

	EventsPerPost int
	SegSessions   int // sessions per timed segment
	WarmSessions  int // sessions of the untimed warm-up segment
	Users         int // cohort size; its 30-day log is replayed in cycles
	Preload       int // states written before the warm-up (read-heavy working set)

	PredictEvery time.Duration // closed loop: sampler period
	PredictRate  float64       // open loop: predicts per second
	SessionRate  float64       // open loop: sessions per second

	SnapshotEvery int // durable store: WAL records between snapshots

	// SpeedSensitivity is how strongly this workload's time-based figures
	// follow the box's current speed as the speed probe sees it (see
	// speedFactor): 0 = not at all, 1 = one for one. Fitted once from runs
	// across quiet and contended phases of the reference box and frozen.
	SpeedSensitivity float64
}

// workloads is the benchmark. Sizes are chosen so that a segment lasts
// about 2.5 s on the quiet reference box, which keeps refSegments of them
// inside refSeconds when the box is contended; README.md
// records the measured ledger shares that justify d, post size and
// snapshot cadence.
var workloads = []workloadSpec{
	{
		Name: "ingest-gemm",
		Why:  "closed loop, wire, one server, GRU d=128 f64: tensor+nn do most of the work, transport and store little",
		Dim:  128, Tier: nn.TierF64, Store: storeSharded,
		EventsPerPost: 256, SegSessions: 150000, WarmSessions: 60000, Users: 12000,
		PredictEvery: 5 * time.Millisecond, SpeedSensitivity: 0.2,
	},
	{
		Name: "ingest-wal",
		Why:  "closed loop, wire, d=32 f32 on a durable statestore with a follower: WAL, snapshot and replication dominate",
		Dim:  32, Tier: nn.TierF32, Store: storeWAL,
		EventsPerPost: 256, SegSessions: 560000, WarmSessions: 200000, Users: 20000,
		PredictEvery: 5 * time.Millisecond, SnapshotEvery: 250000, SpeedSensitivity: 0.6,
	},
	{
		Name: "predict-open",
		Why:  "open loop on the HTTP/JSON plane at fixed rates, posts of 4 events, over 100k preloaded states: user-visible predict latency, read-heavy store, HTTP handling dominates",
		HTTP: true, Open: true,
		Dim: 64, Tier: nn.TierF64, Store: storeVolatile,
		EventsPerPost: 4, SegSessions: 40000, WarmSessions: 16000, Users: 8000, Preload: 100000,
		PredictRate: 1600, SessionRate: 16000, SpeedSensitivity: 0.6,
	},
	{
		Name: "cluster-wire",
		Why:  "closed loop through the wire router to 3 replicas in posts of 8 events, d=32 f32: frame codec, splice, forwarding and socket calls dominate, compute is small",
		Dim:  32, Tier: nn.TierF32, Store: storeSharded, Replicas: 3,
		EventsPerPost: 8, SegSessions: 200000, WarmSessions: 70000, Users: 20000,
		PredictEvery: 5 * time.Millisecond, SpeedSensitivity: 0.6,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// segmentsFor turns the driver's -seconds into a segment count: the
// reference run length maps to refSegments, other lengths scale.
func segmentsFor(seconds int) int {
	n := int(math.Round(float64(seconds) * refSegments / refSeconds))
	if n < minSegments {
		n = minSegments
	}
	return n
}

// smoke shrinks a spec to roughly 2000 sessions for the tier-1 test.
func (s workloadSpec) smoke() workloadSpec {
	s.SegSessions = 600
	s.WarmSessions = 300
	s.Users = 60
	if s.Preload > 0 {
		s.Preload = 500
	}
	if s.SnapshotEvery > 0 {
		s.SnapshotEvery = 250
	}
	if s.Open {
		s.SessionRate, s.PredictRate = 4000, 400
	}
	return s
}

func (s workloadSpec) describe() string {
	plane, loop := "wire", "closed"
	if s.HTTP {
		plane = "http"
	}
	if s.Open {
		loop = fmt.Sprintf("open %.0f sess/s + %.0f predict/s", s.SessionRate, s.PredictRate)
	}
	return fmt.Sprintf("%s loop, %s plane, d=%d %s, %d events/post, %d sessions/segment", loop, plane, s.Dim, s.Tier, s.EventsPerPost, s.SegSessions)
}
