package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/serving"
	"repro/internal/statestore"
)

// The state-transfer endpoints are the replica half of the cluster's
// drain-and-handoff protocol: POST /export streams the hidden states whose
// key hashes fall inside the requested ring arcs, POST /import installs
// such a stream, and POST /drop removes a handed-off range from its old
// owner. The router quiesces traffic and flushes the source before calling
// them; export and drop refuse (409) while sessions are pending or
// finalisations are in flight, because a range snapshot taken mid-traffic
// matches no consistent store state.

// Arc is a closed interval [Lo, Hi] of the 32-bit key-hash ring
// (serving.KeyHash positions). Wrapping intervals are expressed as two
// arcs by the caller.
type Arc struct {
	Lo uint32 `json:"lo"`
	Hi uint32 `json:"hi"`
}

// Contains reports whether the arc covers ring position pos.
func (a Arc) Contains(pos uint32) bool { return pos >= a.Lo && pos <= a.Hi }

// ArcsContain reports whether any arc covers pos.
func ArcsContain(arcs []Arc, pos uint32) bool {
	for _, a := range arcs {
		if a.Contains(pos) {
			return true
		}
	}
	return false
}

// ArcsRequest is the POST /export and /drop request body.
type ArcsRequest struct {
	Arcs []Arc `json:"arcs"`
}

// TransferEntry is one hidden state in flight between replicas. Stored
// marks Val as tagged statestore bytes (moved verbatim, no transcoding);
// otherwise Val is the wire format.
type TransferEntry struct {
	Key    string `json:"key"`
	Val    []byte `json:"val"`
	Stored bool   `json:"stored,omitempty"`
}

// TransferPayload is the POST /import body and the /export response.
type TransferPayload struct {
	Entries []TransferEntry `json:"entries"`
}

// quiesced reports whether no session is buffered and no finalisation is
// in flight (the precondition for a consistent range snapshot).
func (s *Server) quiesced() (pending, inflight int, ok bool) {
	s.mu.Lock()
	pending = s.proc.Pending()
	s.mu.Unlock()
	inflight = s.pool.Inflight()
	return pending, inflight, pending == 0 && inflight == 0
}

// decodeArcs parses an ArcsRequest, rejecting empty or inverted arcs.
func decodeArcs(w http.ResponseWriter, r *http.Request) ([]Arc, bool) {
	var req ArcsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding arcs: "+err.Error())
		return nil, false
	}
	if len(req.Arcs) == 0 {
		writeErr(w, http.StatusBadRequest, "no arcs")
		return nil, false
	}
	for _, a := range req.Arcs {
		if a.Lo > a.Hi {
			writeErr(w, http.StatusBadRequest, "inverted arc (split wrapping ranges)")
			return nil, false
		}
	}
	return req.Arcs, true
}

// handleExport streams the states owned by the requested arcs. With a
// durable statestore behind the server the entries carry tagged stored
// bytes (byte-identical transfer across any codec); a volatile store
// exports the wire format.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	arcs, ok := decodeArcs(w, r)
	if !ok {
		return
	}
	if pending, inflight, ok := s.quiesced(); !ok {
		writeErr(w, http.StatusConflict, fmt.Sprintf(
			"%d sessions pending, %d finalisations in flight — POST /flush first", pending, inflight))
		return
	}
	var out TransferPayload
	if s.opts.State != nil {
		err := s.opts.State.Export(
			func(key string) bool { return ArcsContain(arcs, serving.KeyHash(key)) },
			func(key string, stored []byte) error {
				out.Entries = append(out.Entries, TransferEntry{Key: key, Val: append([]byte(nil), stored...), Stored: true})
				return nil
			})
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "export: "+err.Error())
			return
		}
	} else {
		for _, key := range s.opts.Store.Keys() {
			if !ArcsContain(arcs, serving.KeyHash(key)) {
				continue
			}
			if v, ok := s.opts.Store.Get(key); ok {
				out.Entries = append(out.Entries, TransferEntry{Key: key, Val: v})
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleImport installs a transfer stream. Stored entries go through the
// statestore's verbatim Import seam when one is present; everything else
// lands via the ordinary Put path.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	var in TransferPayload
	if err := json.Unmarshal(body, &in); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding entries: "+err.Error())
		return
	}
	for _, e := range in.Entries {
		if e.Key == "" {
			writeErr(w, http.StatusBadRequest, "entry with empty key")
			return
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.mu.Unlock()
	for _, e := range in.Entries {
		switch {
		case e.Stored && s.opts.State != nil:
			s.opts.State.Import(e.Key, e.Val)
		case e.Stored:
			s.opts.Store.Put(e.Key, statestore.DecodeStoredValue(e.Val))
		default:
			s.opts.Store.Put(e.Key, e.Val)
		}
	}
	writeJSON(w, http.StatusOK, map[string]int{"imported": len(in.Entries)})
}

// handleDrop deletes the states owned by the requested arcs — the final
// step of a handoff, after the new owner confirmed its import.
func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	arcs, ok := decodeArcs(w, r)
	if !ok {
		return
	}
	if pending, inflight, ok := s.quiesced(); !ok {
		writeErr(w, http.StatusConflict, fmt.Sprintf(
			"%d sessions pending, %d finalisations in flight — POST /flush first", pending, inflight))
		return
	}
	dropped := 0
	for _, key := range s.opts.Store.Keys() {
		if ArcsContain(arcs, serving.KeyHash(key)) {
			s.opts.Store.Delete(key)
			dropped++
		}
	}
	writeJSON(w, http.StatusOK, map[string]int{"dropped": dropped})
}
