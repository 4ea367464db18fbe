// Package faults is the deterministic fault-injection layer. Named fault
// points are threaded through the stack — the router's forwarding client,
// the replication protocol's framed connection, the statestore WAL and
// snapshot seams, the server's request handlers — and nil-op by default:
// every point starts with one atomic load (Armed), so the disabled cost on
// the hot path is unmeasurable and allocation-free (the escape gate pins
// the statestore Put path that crosses one of these points).
//
// A scenario arms the layer: a seed plus a list of rules, each naming a
// fault point, an action (delay, error, short-write, drop, reset, corrupt,
// stall, panic), a firing probability and optional count/after bounds.
// Every rule draws from its own splitmix64 PRNG seeded from the scenario
// seed and the rule's identity, so two runs of the same scenario over the
// same call sequence inject the same faults — chaos runs replay.
//
// Fault points in the tree (scope in parentheses):
//
//	router.forward   (host+path)  router → replica forwards, incl. retries
//	router.probe     (host+path)  the router's health prober
//	repl.conn.read   (primary)    follower's framed replication connection
//	repl.conn.write  (primary)    follower → primary acks
//	statestore.wal.write  (dir)   one WAL append (error / short-write)
//	statestore.snap.write (dir)   one snapshot write
//	wire.read        (addr)       inbound bytes on a wire-protocol conn
//	wire.write       (addr)       outbound bytes on a wire-protocol conn
//	server.event / server.predict (""/"wire")  handler entry per transport
//	server.flush     ("")         handler entry
//
// The package is on the deterministic replay path (pplint's clock-
// restricted set): it never reads the wall clock — delays use timers only.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Actions a rule can take at its fault point.
const (
	// ActDelay sleeps DelayMs before the operation proceeds.
	ActDelay = "delay"
	// ActError fails the operation with an injected error (Err selects
	// which: "enospc", "reset", or a literal message).
	ActError = "error"
	// ActShortWrite writes only Short bytes, then fails with
	// io.ErrShortWrite — a torn tail on disk, a cut frame on the wire.
	ActShortWrite = "short-write"
	// ActDrop black-holes the operation: a transport blocks until the
	// caller's deadline, a connection closes silently.
	ActDrop = "drop"
	// ActReset fails immediately with ECONNRESET (and closes the
	// connection at conn points).
	ActReset = "reset"
	// ActCorrupt flips a bit in the bytes crossing a connection point —
	// the CRC-mismatch case the replication follower must survive.
	ActCorrupt = "corrupt"
	// ActStall sleeps DelayMs at a process point (alias of delay, named
	// for handler points).
	ActStall = "stall"
	// ActPanic panics at the point (net/http recovers a handler panic by
	// killing the connection — the no-response crash shape).
	ActPanic = "panic"
)

// ErrInjected marks every synthetic failure so handlers and tests can
// tell injected faults from real ones.
var ErrInjected = errors.New("faults: injected")

// Rule arms one fault: at Point, when Match is a substring of the hit's
// scope (empty matches all), perform Action with probability Prob
// (<=0 or >=1 means always), skipping the first After matching hits and
// firing at most Count times (0 = unlimited).
type Rule struct {
	Point   string  `json:"point"`
	Match   string  `json:"match,omitempty"`
	Action  string  `json:"action"`
	Prob    float64 `json:"prob,omitempty"`
	After   int64   `json:"after,omitempty"`
	Count   int64   `json:"count,omitempty"`
	DelayMs int64   `json:"delay_ms,omitempty"`
	Short   int     `json:"short,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// Plan is a complete scenario: the PRNG seed plus the rule list, the
// shape `-faults file.json` loads.
type Plan struct {
	Seed  uint64 `json:"seed"`
	Rules []Rule `json:"faults"`
}

// Outcome is what one Hit decided. The zero Outcome means "proceed
// normally" — it is what every call gets while the layer is disarmed.
type Outcome struct {
	Delay   time.Duration // sleep this long first
	Err     error         // fail the operation with this error
	Short   int           // with Err: bytes to write before failing
	Drop    bool          // black-hole (block / close silently)
	Corrupt bool          // flip a bit in the payload
	Panic   bool          // panic at the point
}

// armedRule is a Rule plus its runtime state.
type armedRule struct {
	Rule
	mu    sync.Mutex
	rng   uint64
	seen  int64
	fired int64
}

// scenario is an armed plan, indexed by point.
type scenario struct {
	rules map[string][]*armedRule
	all   []*armedRule
}

var (
	armed  atomic.Bool
	active atomic.Pointer[scenario]
)

// Armed reports whether a scenario is live. It is the package-level
// disabled check: one atomic load, no allocation — cheap enough to guard
// every fault point on the hot path.
func Armed() bool { return armed.Load() }

// Arm installs a plan, replacing any previous one (and resetting its
// counters). An empty plan disarms.
func Arm(p *Plan) error {
	if p == nil || len(p.Rules) == 0 {
		Disarm()
		return nil
	}
	sc := &scenario{rules: make(map[string][]*armedRule)}
	for i, r := range p.Rules {
		if r.Point == "" || r.Action == "" {
			return fmt.Errorf("faults: rule %d needs point and action", i)
		}
		switch r.Action {
		case ActDelay, ActError, ActShortWrite, ActDrop, ActReset, ActCorrupt, ActStall, ActPanic:
		default:
			return fmt.Errorf("faults: rule %d: unknown action %q", i, r.Action)
		}
		ar := &armedRule{Rule: r, rng: ruleSeed(p.Seed, r.Point, r.Action, i)}
		sc.rules[r.Point] = append(sc.rules[r.Point], ar)
		sc.all = append(sc.all, ar)
	}
	active.Store(sc)
	armed.Store(true)
	return nil
}

// Disarm removes the scenario; every point nil-ops again.
func Disarm() {
	armed.Store(false)
	active.Store(nil)
}

// Load reads a scenario file (the -faults flag).
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faults: parsing %s: %w", path, err)
	}
	return &p, nil
}

// Hit consults the armed scenario at a named point. Rules are evaluated
// in plan order; the first that fires wins. Disarmed, it returns the zero
// Outcome after one atomic load.
func Hit(point, scope string) Outcome {
	if !armed.Load() {
		return Outcome{}
	}
	sc := active.Load()
	if sc == nil {
		return Outcome{}
	}
	for _, r := range sc.rules[point] {
		if out, ok := r.eval(scope); ok {
			return out
		}
	}
	return Outcome{}
}

// Fire applies a process-point outcome in place: it sleeps a delay/stall,
// panics on an injected panic, and returns the injected error (nil when
// nothing fired). Handlers call it at their entry points.
func Fire(point, scope string) error {
	out := Hit(point, scope)
	if out.Delay > 0 {
		time.Sleep(out.Delay)
	}
	if out.Panic {
		panic(fmt.Sprintf("faults: injected panic at %s", point))
	}
	return out.Err
}

// Counters reports how many times each armed rule has fired, keyed
// "point/action". The chaos experiment uses it to account for every
// injected fault in its report.
func Counters() map[string]int64 {
	sc := active.Load()
	if sc == nil {
		return nil
	}
	out := make(map[string]int64)
	for _, r := range sc.all {
		r.mu.Lock()
		out[r.Point+"/"+r.Action] += r.fired
		r.mu.Unlock()
	}
	return out
}

// eval decides whether this rule fires for one hit.
func (r *armedRule) eval(scope string) (Outcome, bool) {
	if r.Match != "" && !strings.Contains(scope, r.Match) {
		return Outcome{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen++
	if r.seen <= r.After {
		return Outcome{}, false
	}
	if r.Count > 0 && r.fired >= r.Count {
		return Outcome{}, false
	}
	if r.Prob > 0 && r.Prob < 1 {
		if randFloat(&r.rng) >= r.Prob {
			return Outcome{}, false
		}
	}
	r.fired++
	return r.outcome(), true
}

// outcome materialises the rule's action.
func (r *armedRule) outcome() Outcome {
	switch r.Action {
	case ActDelay, ActStall:
		return Outcome{Delay: time.Duration(r.DelayMs) * time.Millisecond}
	case ActError:
		return Outcome{Err: r.errValue()}
	case ActShortWrite:
		return Outcome{Err: fmt.Errorf("%w: %w", ErrInjected, io.ErrShortWrite), Short: r.Short}
	case ActDrop:
		return Outcome{Drop: true}
	case ActReset:
		return Outcome{Err: fmt.Errorf("%w: %w", ErrInjected, syscall.ECONNRESET)}
	case ActCorrupt:
		return Outcome{Corrupt: true}
	case ActPanic:
		return Outcome{Panic: true}
	}
	return Outcome{}
}

// errValue picks the injected error for ActError rules.
func (r *armedRule) errValue() error {
	switch r.Err {
	case "enospc":
		return fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)
	case "reset":
		return fmt.Errorf("%w: %w", ErrInjected, syscall.ECONNRESET)
	case "":
		return ErrInjected
	default:
		return fmt.Errorf("%w: %s", ErrInjected, r.Err)
	}
}

// ruleSeed derives a rule-private splitmix64 seed from the scenario seed
// and the rule's identity, so rules draw independent, replayable streams.
func ruleSeed(seed uint64, point, action string, idx int) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, s := range []string{point, action} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 0x100000001b3
		}
	}
	h ^= uint64(idx) * 0x2545f4914f6cdd1d
	return h
}

// splitmix64 advances the rule's PRNG.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e9b5
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// randFloat draws a uniform float64 in [0, 1).
func randFloat(s *uint64) float64 {
	return float64(splitmix64(s)>>11) / (1 << 53)
}
