package statestore

import (
	"encoding/binary"
	"math"

	"repro/internal/serving"
)

// Codec selects the resident (and persisted) representation of hidden
// states. The serving tier always speaks the wire format of
// serving.EncodeHidden — an 8-byte little-endian timestamp followed by
// 4 bytes per dimension of float32 — so the store transcodes at the Put/Get
// boundary and the processors and prediction service run unchanged.
type Codec int

const (
	// CodecFloat32 keeps values verbatim (4 bytes/dim + timestamp).
	CodecFloat32 Codec = iota
	// CodecInt8 holds warm states at 1 byte/dim using the §9 fixed-scale
	// int8 quantization (GRU hidden values live in (−1,1), so the code
	// loses at most 1/254 per dimension). This is the paper's own
	// suggestion for shrinking the per-user state 4×.
	CodecInt8
	// CodecF32 is the f32 compute tier's codec: values that parse as
	// hidden-state records are tagged tagF32 and stored payload-verbatim,
	// so the resident representation is exactly the float32 panel the f32
	// serving tier computes in — Get is tag-strip + copy, no per-dimension
	// transcode in either direction. Bytes that do not parse as hidden
	// records fall back to tagRaw, like every codec.
	CodecF32
)

func (c Codec) String() string {
	switch c {
	case CodecInt8:
		return "int8"
	case CodecF32:
		return "f32"
	default:
		return "float32"
	}
}

// Stored values are self-describing: a one-byte tag precedes the payload,
// so a store reopened with a different codec option still decodes every
// recovered entry by the entry's own tag.
const (
	tagRaw  byte = 0 // payload is the wire format verbatim
	tagInt8 byte = 1 // payload is [8B ts][1B/dim int8]
	tagF32  byte = 2 // payload is a well-formed hidden record, [8B ts][4B/dim f32]
)

// encodeStored transcodes a wire-format value into the tagged resident
// representation, appending to dst[:0]. Values that do not parse as
// hidden-state records (too short, or a vector length that is not a
// multiple of 4) are kept raw regardless of codec, so the store never
// destroys bytes it does not understand.
func encodeStored(dst []byte, c Codec, wire []byte) []byte {
	if c == CodecInt8 && len(wire) >= 8 && (len(wire)-8)%4 == 0 {
		n := (len(wire) - 8) / 4
		need := 1 + 8 + n
		if cap(dst) < need {
			dst = make([]byte, 0, need)
		}
		dst = dst[:need]
		dst[0] = tagInt8
		copy(dst[1:9], wire[:8])
		for i := 0; i < n; i++ {
			v := float64(math.Float32frombits(binary.LittleEndian.Uint32(wire[8+4*i:])))
			dst[9+i] = byte(serving.QuantizeSample(v))
		}
		return dst
	}
	tag := tagRaw
	if c == CodecF32 && len(wire) >= 8 && (len(wire)-8)%4 == 0 {
		// Same bytes as tagRaw, but the tag asserts "well-formed f32 hidden
		// record": replicas, transfers, and debugging tools can trust the
		// payload's shape without re-parsing, and the statestore's resident
		// width provably matches the f32 compute tier's.
		tag = tagF32
	}
	need := 1 + len(wire)
	if cap(dst) < need {
		dst = make([]byte, 0, need)
	}
	dst = dst[:need]
	dst[0] = tag
	copy(dst[1:], wire)
	return dst
}

// decodeWire reverses encodeStored into a freshly allocated wire-format
// value (Get must hand out caller-owned slices).
func decodeWire(stored []byte) []byte {
	if len(stored) == 0 {
		return nil
	}
	payload := stored[1:]
	if stored[0] != tagInt8 {
		out := make([]byte, len(payload))
		copy(out, payload)
		return out
	}
	if len(payload) < 8 {
		out := make([]byte, len(payload))
		copy(out, payload)
		return out
	}
	n := len(payload) - 8
	out := make([]byte, 8+4*n)
	copy(out[:8], payload[:8])
	for i := 0; i < n; i++ {
		v := serving.DequantizeSample(int8(payload[8+i]))
		binary.LittleEndian.PutUint32(out[8+4*i:], math.Float32bits(float32(v)))
	}
	return out
}

// storedTS extracts the record timestamp from a tagged value (both codecs
// keep it in the first 8 payload bytes). Returns 0 for malformed values.
func storedTS(stored []byte) int64 {
	if len(stored) < 9 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(stored[1:9]))
}
