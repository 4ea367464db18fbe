package cluster

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/server"
)

// Drain-and-handoff: moving a key range between replicas without a single
// unexpected cold start. The router holds its write lock for the duration,
// so no event or predict can race the transfer:
//
//  1. flush every source replica (fires outstanding session timers and
//     drains its micro-batcher — afterwards the source is quiescent and its
//     store holds a consistent final state for every key it owns)
//  2. export each moved arc from its source (tagged stored bytes through
//     the statestore seam — no transcoding)
//  3. import the entries into the destination (verbatim install)
//  4. drop the moved arcs from the source (so cluster-wide digests count
//     every state exactly once)
//  5. swap the ring and release the lock
//
// A failure aborts with the old ring still in place. Steps 3-4 may then
// have left copies on the destination; the next successful reshard
// overwrites them (imports are idempotent absolute values), but the
// operator should re-run the reshard before trusting a cluster digest.

// Reshard cuts the cluster over to a new replica set, moving exactly the
// key ranges whose ring ownership changes. It returns the number of moved
// states.
func (r *Router) Reshard(newReplicas []string) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	newRing, err := NewRing(newReplicas, r.opts.VNodes)
	if err != nil {
		return 0, err
	}
	moves := MovedArcs(r.ring, newRing)
	moved := 0
	if len(moves) > 0 {
		sources := map[string]bool{}
		for _, m := range moves {
			sources[m.Src] = true
		}
		for src := range sources {
			if err := r.flushReplica(src); err != nil {
				return 0, fmt.Errorf("cluster: draining %s: %w", src, err)
			}
		}
		for _, m := range moves {
			n, err := r.transfer(m)
			if err != nil {
				return moved, fmt.Errorf("cluster: handoff %s -> %s: %w", m.Src, m.Dst, err)
			}
			moved += n
		}
	}
	r.ring = newRing
	r.reshards++
	r.moved += moved
	return moved, nil
}

// flushReplica drains one replica's pipeline (outstanding timers fire, the
// micro-batcher empties) so its store is consistent for export.
func (r *Router) flushReplica(url string) error {
	status, err := r.postJSON(context.Background(), url, "/flush", nil, nil, r.ctlOpts())
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("flush HTTP %d", status)
	}
	return nil
}

// transfer runs export → import → drop for one move.
func (r *Router) transfer(m Move) (int, error) {
	req := server.ArcsRequest{Arcs: m.Arcs}
	var payload server.TransferPayload
	status, err := r.postJSON(context.Background(), m.Src, "/export", req, &payload, r.ctlOpts())
	if err != nil {
		return 0, fmt.Errorf("export: %w", err)
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("export HTTP %d", status)
	}
	if err := r.importEntries(m.Dst, payload.Entries); err != nil {
		return 0, err
	}
	if len(payload.Entries) > 0 {
		status, err = r.postJSON(context.Background(), m.Src, "/drop", req, nil, r.ctlOpts())
		if err != nil {
			return 0, fmt.Errorf("drop: %w", err)
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("drop HTTP %d", status)
		}
	}
	return len(payload.Entries), nil
}

// importEntries installs entries on a replica in body-cap-sized chunks.
func (r *Router) importEntries(url string, entries []server.TransferEntry) error {
	for lo := 0; lo < len(entries); lo += r.opts.ImportChunk {
		hi := lo + r.opts.ImportChunk
		if hi > len(entries) {
			hi = len(entries)
		}
		status, err := r.postJSON(context.Background(), url, "/import", server.TransferPayload{Entries: entries[lo:hi]}, nil, r.ctlOpts())
		if err != nil {
			return fmt.Errorf("import: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("import HTTP %d", status)
		}
	}
	return nil
}
