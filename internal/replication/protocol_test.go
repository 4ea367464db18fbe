package replication

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/wire"
)

// goldenFrames pins the replication link's bytes: one frame of every
// type, as the link wrote them before it shared internal/wire's codec.
// A diff here means followers and primaries of different builds no
// longer understand each other.
var goldenFrames = []struct {
	name  string
	write func(fw *frameWriter) error
	hex   string
}{
	{"fSubscribe", func(fw *frameWriter) error {
		return fw.writeJSON(fSubscribe, subscribeReq{Epoch: "0123456789abcdef", Seq: 42, Arcs: []Arc{{Lo: 7, Hi: 1 << 31}}})
	}, "01470000007b2265706f6368223a2230313233343536373839616263646566222c22736571223a34322c2261726373223a5b7b226c6f223a372c226869223a323134373438333634387d5d7d57a2a3cf"},
	{"fTailStart", func(fw *frameWriter) error {
		return fw.writeJSON(fTailStart, hello{Epoch: "0123456789abcdef"})
	}, "021c0000007b2265706f6368223a2230313233343536373839616263646566227d872695b8"},
	{"fBootStart", func(fw *frameWriter) error {
		return fw.writeJSON(fBootStart, hello{Epoch: "fedcba9876543210"})
	}, "031c0000007b2265706f6368223a2266656463626139383736353433323130227d8043b5e7"},
	{"fBootEntry", func(fw *frameWriter) error {
		return fw.writeBootEntry("u17", []byte{0x01, 0x80, 0xff, 0x00, 0x7f})
	}, "040c000000030000007531370180ff007f86169b37"},
	{"fBootEnd", func(fw *frameWriter) error {
		return fw.writeSeq(fBootEnd, 1001)
	}, "0508000000e903000000000000b8a720b9"},
	{"fRecord", func(fw *frameWriter) error {
		return fw.writeRecord(1002, 1, "u17", []byte{0xde, 0xad, 0xbe, 0xef})
	}, "0614000000ea030000000000000103000000753137deadbeefd70c2719"},
	{"fHeartbeat", func(fw *frameWriter) error {
		return fw.writeHeartbeat(1002, 1700000000)
	}, "0710000000ea0300000000000000f1536500000000d9eb9651"},
	{"fAck", func(fw *frameWriter) error {
		return fw.writeSeq(fAck, 1002)
	}, "0808000000ea0300000000000025c08370"},
}

// writeFrame runs one frameWriter call and returns the bytes it wrote.
func writeFrame(t testing.TB, write func(fw *frameWriter) error) []byte {
	t.Helper()
	var out bytes.Buffer
	fw := &frameWriter{Writer: wire.NewWriter(bufio.NewWriter(&out))}
	if err := write(fw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestFrameBytesGolden(t *testing.T) {
	for _, g := range goldenFrames {
		if got := hex.EncodeToString(writeFrame(t, g.write)); got != g.hex {
			t.Errorf("%s frame changed bytes:\n got %s\nwant %s", g.name, got, g.hex)
		}
	}
}

// readBack frames one message and returns the payload wire.ReadFrame
// hands back for it.
func readBack(t *testing.T, write func(fw *frameWriter) error) []byte {
	t.Helper()
	_, p, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(writeFrame(t, write))), nil)
	if err != nil {
		t.Fatalf("reading back a written frame: %v", err)
	}
	return p
}

// FuzzReplicationPayload feeds arbitrary payloads to every decoder the
// follower and source run on a frame that passed its CRC. None may panic,
// and whatever one accepts must come back byte for byte (binary frames)
// or value for value (JSON frames) when written again.
func FuzzReplicationPayload(f *testing.F) {
	for _, g := range goldenFrames {
		raw, _ := hex.DecodeString(g.hex)
		f.Add(raw[5 : len(raw)-4])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		if seq, op, key, val, err := parseRecordFrame(p); err == nil {
			if got := readBack(t, func(fw *frameWriter) error { return fw.writeRecord(seq, op, key, val) }); !bytes.Equal(got, p) {
				t.Fatalf("record round trip: %x -> %x", p, got)
			}
		}
		if key, stored, err := parseBootEntry(p); err == nil {
			if got := readBack(t, func(fw *frameWriter) error { return fw.writeBootEntry(key, stored) }); !bytes.Equal(got, p) {
				t.Fatalf("bootstrap entry round trip: %x -> %x", p, got)
			}
		}
		if seq, err := parseSeq(p); err == nil {
			if got := readBack(t, func(fw *frameWriter) error { return fw.writeSeq(fAck, seq) }); !bytes.Equal(got, p) {
				t.Fatalf("sequence round trip: %x -> %x", p, got)
			}
		}
		if seq, clock, err := parseHeartbeat(p); err == nil {
			if got := readBack(t, func(fw *frameWriter) error { return fw.writeHeartbeat(seq, clock) }); !bytes.Equal(got, p) {
				t.Fatalf("heartbeat round trip: %x -> %x", p, got)
			}
		}
		var req subscribeReq
		if json.Unmarshal(p, &req) == nil {
			jsonRoundTrip(t, fSubscribe, req, new(subscribeReq))
		}
		var h hello
		if json.Unmarshal(p, &h) == nil {
			jsonRoundTrip(t, fTailStart, h, new(hello))
		}
	})
}

// jsonRoundTrip writes v as a JSON frame, decodes the payload into back
// and requires that re-encoding back gives the payload that was written.
func jsonRoundTrip(t *testing.T, typ byte, v, back any) {
	t.Helper()
	p := readBack(t, func(fw *frameWriter) error { return fw.writeJSON(typ, v) })
	if err := json.Unmarshal(p, back); err != nil {
		t.Fatalf("written JSON frame does not decode: %v (%s)", err, p)
	}
	again, err := json.Marshal(back)
	if err != nil || !bytes.Equal(again, p) {
		t.Fatalf("JSON round trip: %s -> %s (%v)", p, again, err)
	}
}
