package wire

import (
	"encoding/binary"
	"errors"
)

var errBadOwner = errors.New("wire: splice owner index out of range")

// OwnerIndexer maps a user ID to a replica index. The cluster ring
// implements it; tests substitute anything deterministic.
type OwnerIndexer interface {
	OwnerIndexOfUser(user int) int
}

// Splicer splits an inbound event batch into per-owner sub-batches by
// copying byte ranges — the router's zero-re-marshal fan-out. Events stay
// encoded end to end: the splicer reads only each event's kind byte and
// user varint, length-skips the rest, and appends the event's raw bytes
// to its owner's buffer, so in-frame order is preserved per owner and no
// struct is ever materialized on the forwarding path.
//
// Steady state it allocates nothing: owner buffers and counts are reused
// across calls (Reset truncates, Split appends). A Splicer is not safe
// for concurrent use; pin one per connection.
type Splicer struct {
	bufs   [][]byte
	counts []int
}

// Reset prepares the splicer for n owners, truncating reused buffers.
func (s *Splicer) Reset(n int) {
	if cap(s.bufs) < n {
		grown := make([][]byte, n)
		copy(grown, s.bufs[:cap(s.bufs)])
		s.bufs = grown
		s.counts = make([]int, n)
	}
	s.bufs = s.bufs[:n]
	s.counts = s.counts[:n]
	for i := range s.bufs {
		s.bufs[i] = s.bufs[i][:0]
		s.counts[i] = 0
	}
}

// Split walks batch ([uvarint count][events]) and appends each event's
// bytes to its owner's sub-batch. Any decode error poisons the whole
// batch — nothing partial is exposed — and, because a well-formed client
// never produces one, the caller treats it as connection-fatal.
func (s *Splicer) Split(batch []byte, ring OwnerIndexer) error {
	n, off, err := uvarint(batch, 0)
	if err != nil {
		return err
	}
	if n > uint64(len(batch)) {
		return ErrTruncated
	}
	for i := uint64(0); i < n; i++ {
		user, end, err := eventSpan(batch, off)
		if err != nil {
			return err
		}
		owner := ring.OwnerIndexOfUser(user)
		if owner < 0 || owner >= len(s.bufs) {
			return errBadOwner
		}
		s.bufs[owner] = append(s.bufs[owner], batch[off:end]...)
		s.counts[owner]++
		off = end
	}
	if off != len(batch) {
		return ErrTruncated
	}
	return nil
}

// Owners returns the number of owner slots prepared by Reset.
func (s *Splicer) Owners() int { return len(s.bufs) }

// Batch returns owner i's sub-batch: its event count and concatenated
// event bytes (no count prefix — WriteEvents frames the count). The bytes
// alias the splicer's reused buffer and are valid until the next Reset.
func (s *Splicer) Batch(i int) (count int, events []byte) {
	return s.counts[i], s.bufs[i]
}

// WriteEvents frames an event batch from its parts:
// [8B reqID][uvarint count][events].
func (fw *Writer) WriteEvents(reqID uint64, count int, events []byte) error {
	binary.LittleEndian.PutUint64(fw.pre[:8], reqID)
	n := 8 + binary.PutUvarint(fw.pre[8:], uint64(count))
	return fw.writePrefixed(FEvents, n, events)
}
