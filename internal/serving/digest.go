package serving

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// StateDigest hashes the store's entire resident state — every key and its
// wire-format value — into a 256-bit hex digest, and reports how many
// states it covered. Two stores hold byte-identical states iff their
// digests match, which is how the HTTP serving path proves parity with
// in-process sequential replay without shipping every hidden state over
// the wire.
//
// The construction is order-independent: each (key, value) entry is framed
// and hashed on its own (SHA-256), and the per-entry hashes are summed as
// 256-bit integers mod 2^256. Entry order therefore cannot matter, and —
// because every key lives in exactly one store — the digests of stores
// holding disjoint key sets combine with CombineDigests into exactly the
// digest one store holding their union would report. That additivity is
// what lets a user-sharded cluster aggregate per-replica digests into a
// value directly comparable to the single-process sequential digest.
//
// Reads go through Get, so the store's access counters advance; take a
// digest after accounting, not before.
func StateDigest(store Store) (digest string, keys int) {
	var acc [sha256.Size]byte
	var frame [8]byte
	for _, k := range store.Keys() {
		v, ok := store.Get(k)
		if !ok {
			continue
		}
		h := sha256.New()
		binary.LittleEndian.PutUint64(frame[:], uint64(len(k)))
		h.Write(frame[:])
		h.Write([]byte(k))
		binary.LittleEndian.PutUint64(frame[:], uint64(len(v)))
		h.Write(frame[:])
		h.Write(v)
		addDigest(&acc, h.Sum(nil))
		keys++
	}
	return hex.EncodeToString(acc[:]), keys
}

// CombineDigests sums StateDigest values over disjoint key sets: the result
// equals the digest of a single store holding the union of the inputs'
// states. The empty digest (zero keys) is the identity. Inputs must be the
// 64-hex-char values StateDigest produces.
func CombineDigests(digests ...string) (string, error) {
	var acc [sha256.Size]byte
	for _, d := range digests {
		b, err := hex.DecodeString(d)
		if err != nil || len(b) != sha256.Size {
			return "", fmt.Errorf("serving: malformed digest %q", d)
		}
		addDigest(&acc, b)
	}
	return hex.EncodeToString(acc[:]), nil
}

// addDigest accumulates b into acc as little-endian 256-bit integers
// mod 2^256.
func addDigest(acc *[sha256.Size]byte, b []byte) {
	var carry uint16
	for i := 0; i < sha256.Size; i++ {
		carry += uint16(acc[i]) + uint16(b[i])
		acc[i] = byte(carry)
		carry >>= 8
	}
}
