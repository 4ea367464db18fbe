package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Router-driven failover. The router probes every node it knows about —
// ring replicas, their followers, spare standbys — on a fixed interval
// with a short per-probe timeout. A ring replica that fails
// ProbeFails consecutive probes is declared dead and failed over: under
// the same write lock a reshard holds, its follower is promoted
// (POST /replicate/promote — after which no replicated record can land)
// and the ring is swapped with ReplaceReplica, so the follower inherits
// the dead replica's arcs exactly and zero arcs move between survivors.
// Re-replication then restarts in the background: a spare (if any) is
// told to follow the promoted replica, restoring the one-follower
// topology for the next failure.
//
// What the promotion guarantees: every record the follower acknowledged
// is applied; the states it holds are byte-identical to the primary's
// (Import-seam replication). What it cannot guarantee: records the dead
// primary committed but never shipped (the async window) are lost with
// it — the failover experiment and the CI smoke drive that window to
// zero by waiting for lag 0 before the kill, and bound it otherwise.

// ReplicaHealth is one probed node's state in the /healthz breakdown.
type ReplicaHealth struct {
	URL              string `json:"url"`
	Role             string `json:"role"` // "replica", "follower" or "spare"
	Healthy          bool   `json:"healthy"`
	ConsecutiveFails int    `json:"consecutive_fails"`
	LastErr          string `json:"last_err,omitempty"`
}

// healthState is the tracker's per-node record, guarded by healthMu.
type healthState struct {
	fails   int
	probed  bool
	lastErr string
}

// StartProber launches the periodic health probe (no-op unless
// Options.ProbeInterval > 0). Stop with StopProber.
func (r *Router) StartProber() {
	if r.opts.ProbeInterval <= 0 {
		return
	}
	r.proberOnce.Do(func() {
		r.proberWG.Add(1)
		go r.runProber()
	})
}

// StopProber stops the periodic probe and waits for it — and any
// background re-replication POST — to exit.
func (r *Router) StopProber() {
	r.proberStop.Do(func() { close(r.proberStopCh) })
	r.proberWG.Wait()
	r.rereplicateWG.Wait()
}

func (r *Router) runProber() {
	defer r.proberWG.Done()
	tick := time.NewTicker(r.opts.ProbeInterval)
	defer tick.Stop()
	for {
		for _, dead := range r.probeOnce() {
			// A failed failover keeps the ring and records its error in
			// lastFailoverErr; the next probe round tries again.
			_ = r.Failover(dead)
		}
		select {
		case <-r.proberStopCh:
			return
		case <-tick.C:
		case <-r.probeNow:
			// A tripped breaker nudges an immediate probe round: replica
			// death detected by the data plane should start the failover
			// clock now, not after the rest of the probe interval.
		}
	}
}

// probeSet snapshots every node the router should probe, with its role.
func (r *Router) probeSet() []ReplicaHealth {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []ReplicaHealth
	for _, u := range r.ring.Replicas() {
		out = append(out, ReplicaHealth{URL: u, Role: "replica"})
	}
	for _, f := range r.followers {
		out = append(out, ReplicaHealth{URL: f, Role: "follower"})
	}
	for _, s := range r.spares {
		out = append(out, ReplicaHealth{URL: s, Role: "spare"})
	}
	return out
}

// probeOnce probes every known node concurrently and returns the ring
// replicas whose consecutive-failure count has crossed the threshold
// (the prober fails those over; /healthz only reports).
func (r *Router) probeOnce() (dead []string) {
	nodes := r.probeSet()
	type result struct {
		idx int
		err error
	}
	results := make(chan result, len(nodes))
	for i, n := range nodes {
		go func(i int, url string) {
			results <- result{i, r.probe(url)}
		}(i, n.URL)
	}
	errs := make([]error, len(nodes))
	for range nodes {
		res := <-results
		errs[res.idx] = res.err
	}
	r.healthMu.Lock()
	defer r.healthMu.Unlock()
	for i, n := range nodes {
		st := r.health[n.URL]
		if st == nil {
			st = &healthState{}
			r.health[n.URL] = st
		}
		st.probed = true
		if errs[i] == nil {
			st.fails = 0
			st.lastErr = ""
			continue
		}
		st.fails++
		st.lastErr = errs[i].Error()
		if n.Role == "replica" && st.fails >= r.probeFails() {
			dead = append(dead, n.URL)
		}
	}
	return dead
}

// probe is one health check against one node.
func (r *Router) probe(url string) error {
	resp, err := r.probeClient.Get(url + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz HTTP %d", resp.StatusCode)
	}
	return nil
}

func (r *Router) probeFails() int {
	if r.opts.ProbeFails <= 0 {
		return 3
	}
	return r.opts.ProbeFails
}

// Failover promotes the follower configured for a dead ring replica and
// swaps the ring under the write lock — the same lock a reshard holds, so
// traffic observes the cutover as a pause, never as disorder. After the
// swap, a spare (when available) is retargeted at the promoted replica in
// the background, restoring the follower topology. On any error the ring
// is unchanged and the error is kept as /healthz's last_failover_err.
func (r *Router) Failover(dead string) (err error) {
	defer func() {
		if err != nil {
			r.healthMu.Lock()
			r.lastFailoverErr = fmt.Sprintf("%s: %v", dead, err)
			r.healthMu.Unlock()
		}
	}()
	r.mu.Lock()
	defer r.mu.Unlock()
	inRing := false
	for _, u := range r.ring.Replicas() {
		if u == dead {
			inRing = true
			break
		}
	}
	if !inRing {
		return fmt.Errorf("cluster: %s is not a ring replica", dead)
	}
	follower := r.followers[dead]
	if follower == "" {
		return fmt.Errorf("cluster: no follower configured for %s — its arcs have no healthy owner", dead)
	}
	// Promotion is synchronous and must precede the ring swap: once it
	// returns, the follower applies no more replicated records, so the
	// writes the new ring routes to it cannot interleave with the tail of
	// the old primary's stream. Blocking I/O under the write lock is the
	// cutover seam the reshard protocol already established. A follower
	// stopped inside a bootstrap holds a partial store and answers 409: its
	// arcs stay with the dead replica rather than lose states silently.
	status, err := r.postJSON(context.Background(), follower, "/replicate/promote", nil, nil, r.ctlOpts())
	if err != nil {
		return fmt.Errorf("cluster: promoting %s: %w", follower, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster: promoting %s: HTTP %d", follower, status)
	}
	newRing, err := r.ring.ReplaceReplica(dead, follower)
	if err != nil {
		return err
	}
	r.ring = newRing
	delete(r.followers, dead)
	r.failovers++
	r.healthMu.Lock()
	delete(r.health, dead)
	r.healthMu.Unlock()
	if len(r.spares) > 0 {
		spare := r.spares[0]
		r.spares = append([]string(nil), r.spares[1:]...)
		r.followers[follower] = spare
		// Re-replication happens off the lock: the POST just retargets the
		// spare; its own client bootstraps from the promoted replica
		// asynchronously.
		r.rereplicateWG.Add(1)
		go r.rereplicate(follower, spare)
	}
	return nil
}

// rereplicate points a spare at a freshly promoted primary.
func (r *Router) rereplicate(primary, spare string) {
	defer r.rereplicateWG.Done()
	status, err := r.postJSON(context.Background(), spare, "/replicate/follow", map[string]string{"primary": primary}, nil, r.ctlOpts())
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d", status)
	}
	if err != nil {
		r.healthMu.Lock()
		r.lastFailoverErr = fmt.Sprintf("re-replicating %s -> %s: %v", primary, spare, err)
		r.healthMu.Unlock()
	}
}

// Failovers returns how many promotions this router has executed.
func (r *Router) Failovers() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.failovers
}

// healthBreakdown assembles the /healthz payload from the tracker. Nodes
// the prober has not reached yet (or ever) count as healthy-unknown
// rather than failing the endpoint — a router that just started must not
// report 503 before its first probe lands.
func (r *Router) healthBreakdown() (nodes []ReplicaHealth, degraded bool) {
	nodes = r.probeSet()
	r.healthMu.Lock()
	defer r.healthMu.Unlock()
	threshold := r.probeFails()
	for i := range nodes {
		st := r.health[nodes[i].URL]
		if st == nil || !st.probed {
			nodes[i].Healthy = true
			continue
		}
		nodes[i].ConsecutiveFails = st.fails
		nodes[i].LastErr = st.lastErr
		nodes[i].Healthy = st.fails < threshold
		if !nodes[i].Healthy && nodes[i].Role == "replica" {
			// A dead ring replica means its arcs have no healthy owner
			// (a dead follower or spare degrades redundancy, not service).
			degraded = true
		}
	}
	return nodes, degraded
}
