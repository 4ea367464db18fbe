// Package replication ships a primary statestore's committed records to a
// follower over one persistent connection, so a router can promote the
// follower when the primary dies without losing acknowledged state.
//
// The primary side (Source) tails the statestore's in-memory subscription
// ring (statestore.TailFrom): puts, deletes, and snapshot markers stream
// in commit order with stable sequence numbers, inside a bounded in-flight
// window opened by the follower's acks. A follower that joins late — or
// falls further behind than the ring retains — is bootstrapped through the
// Export seam (tagged stored bytes, moved verbatim) and then tails from
// the position the bootstrap names. The follower side (Follower) owns a
// statestore of its own, applies puts through the Import seam so entries
// land byte-identical (the additive state digest then proves equivalence
// without quiescing anyone), and reconnects with backoff when the link
// drops.
//
// Transport: the follower POSTs /replicate/subscribe with an Upgrade
// header; the server hijacks the connection and both sides switch to the
// CRC-checked binary frames of internal/wire, the codec the event/predict
// link uses — follower→primary carries the subscribe request and acks,
// primary→follower everything else. Epochs (random per
// Source incarnation) fence stale positions across primary restarts: a
// subscriber naming an unknown epoch is re-bootstrapped, never tailed.
package replication

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/wire"
)

// UpgradeProtocol names the connection upgrade in the HTTP handshake.
const UpgradeProtocol = "pp-replicate"

// Frame types. Frames are written by wire.Writer and read by
// wire.ReadFrame, whose CRC-32 trailer lets either side detect a flipped
// bit on the wire instead of applying a corrupted record; a mismatch
// surfaces as wire.ErrFrameCorrupt and the follower drops the connection
// and re-bootstraps. The types are this link's own, not wire's.
const (
	// fSubscribe (follower→primary) opens a session: a JSON subscribe
	// payload naming the last seen epoch, the first wanted sequence
	// number, and an optional arc filter.
	fSubscribe byte = 1
	// fTailStart (primary→follower) accepts the requested position;
	// records follow from it. JSON hello payload.
	fTailStart byte = 2
	// fBootStart (primary→follower) begins a snapshot bootstrap; the
	// follower must clear its state and ingest the entries that follow.
	// JSON hello payload.
	fBootStart byte = 3
	// fBootEntry is one bootstrapped state: [4B keyLen][key][stored].
	fBootEntry byte = 4
	// fBootEnd closes a bootstrap: [8B seq] — the first sequence number
	// the tail will deliver next (the bootstrap covers everything before
	// it).
	fBootEnd byte = 5
	// fRecord is one committed record: [8B seq][1B op][4B keyLen][key][val].
	fRecord byte = 6
	// fHeartbeat (primary→follower) is sent when the tail is idle:
	// [8B seq][8B clock] — the primary's newest sequence number and
	// virtual clock.
	fHeartbeat byte = 7
	// fAck (follower→primary) reports the highest applied sequence
	// number: [8B seq]. Opens the primary's in-flight window.
	fAck byte = 8
)

// Arc is a closed interval [Lo, Hi] of the 32-bit key-hash ring, matching
// the server's transfer arcs (wrapping ranges are split by the caller).
type Arc struct {
	Lo uint32 `json:"lo"`
	Hi uint32 `json:"hi"`
}

func arcsContain(arcs []Arc, pos uint32) bool {
	for _, a := range arcs {
		if pos >= a.Lo && pos <= a.Hi {
			return true
		}
	}
	return false
}

// subscribeReq is the fSubscribe payload. Seq is the first sequence
// number wanted (last applied + 1); Epoch the source epoch it was
// assigned under ("" forces a bootstrap). Empty Arcs subscribes to every
// key the primary owns.
type subscribeReq struct {
	Epoch string `json:"epoch"`
	Seq   int64  `json:"seq"`
	Arcs  []Arc  `json:"arcs,omitempty"`
}

// hello is the fTailStart / fBootStart payload.
type hello struct {
	Epoch string `json:"epoch"`
}

// frameWriter writes this link's messages through the wire codec,
// reusing scratch for the fields it puts before a payload.
type frameWriter struct {
	*wire.Writer
	scratch []byte
}

func (fw *frameWriter) writeJSON(typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := fw.Frame(typ, len(payload)); err != nil {
		return err
	}
	if err := fw.Body(payload); err != nil {
		return err
	}
	return fw.Trailer()
}

// writeRecord frames one tail record.
func (fw *frameWriter) writeRecord(seq int64, op byte, key string, val []byte) error {
	if err := fw.Frame(fRecord, 8+1+4+len(key)+len(val)); err != nil {
		return err
	}
	b := fw.scratch[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(seq))
	b = append(b, op)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	fw.scratch = b
	if err := fw.Body(b); err != nil {
		return err
	}
	if err := fw.Body(val); err != nil {
		return err
	}
	return fw.Trailer()
}

// writeBootEntry frames one bootstrapped state.
func (fw *frameWriter) writeBootEntry(key string, stored []byte) error {
	if err := fw.Frame(fBootEntry, 4+len(key)+len(stored)); err != nil {
		return err
	}
	b := fw.scratch[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	fw.scratch = b
	if err := fw.Body(b); err != nil {
		return err
	}
	if err := fw.Body(stored); err != nil {
		return err
	}
	return fw.Trailer()
}

// writeSeq frames a bare-sequence message (fBootEnd, fAck): the 8-byte
// sequence number sits where a wire request carries its ID.
func (fw *frameWriter) writeSeq(typ byte, seq int64) error {
	return fw.WriteRequest(typ, uint64(seq), nil)
}

// writeHeartbeat frames an idle heartbeat.
func (fw *frameWriter) writeHeartbeat(seq, clock int64) error {
	fw.scratch = binary.LittleEndian.AppendUint64(fw.scratch[:0], uint64(clock))
	return fw.WriteRequest(fHeartbeat, uint64(seq), fw.scratch)
}

// parseRecordFrame decodes an fRecord payload. key and val alias the payload
// buffer; callers copy what they retain.
func parseRecordFrame(p []byte) (seq int64, op byte, key string, val []byte, err error) {
	if len(p) < 13 {
		return 0, 0, "", nil, fmt.Errorf("replication: short record frame (%d bytes)", len(p))
	}
	seq = int64(binary.LittleEndian.Uint64(p))
	op = p[8]
	kl := int(binary.LittleEndian.Uint32(p[9:]))
	if 13+kl > len(p) {
		return 0, 0, "", nil, fmt.Errorf("replication: record key length %d overruns frame", kl)
	}
	return seq, op, string(p[13 : 13+kl]), p[13+kl:], nil
}

// parseBootEntry decodes an fBootEntry payload; key and stored alias it.
func parseBootEntry(p []byte) (key string, stored []byte, err error) {
	if len(p) < 4 {
		return "", nil, fmt.Errorf("replication: short bootstrap entry (%d bytes)", len(p))
	}
	kl := int(binary.LittleEndian.Uint32(p))
	if 4+kl > len(p) {
		return "", nil, fmt.Errorf("replication: bootstrap key length %d overruns frame", kl)
	}
	return string(p[4 : 4+kl]), p[4+kl:], nil
}

func parseSeq(p []byte) (int64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("replication: bad sequence frame length %d", len(p))
	}
	return int64(binary.LittleEndian.Uint64(p)), nil
}

func parseHeartbeat(p []byte) (seq, clock int64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("replication: bad heartbeat frame length %d", len(p))
	}
	return int64(binary.LittleEndian.Uint64(p[:8])), int64(binary.LittleEndian.Uint64(p[8:])), nil
}
