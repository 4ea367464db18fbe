package statestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCodecF32Tagging pins the tagF32 encode rules: well-formed hidden
// records are tagged tagF32 with the payload stored verbatim (no
// transcode), malformed bytes fall back to tagRaw, and decode reverses both
// byte for byte.
func TestCodecF32Tagging(t *testing.T) {
	wire := wireState(12, 3, 4321)
	stored := encodeStored(nil, CodecF32, wire)
	if stored[0] != tagF32 {
		t.Fatalf("hidden record tagged %d, want tagF32", stored[0])
	}
	if !bytes.Equal(stored[1:], wire) {
		t.Fatal("tagF32 payload must be the wire bytes verbatim")
	}
	if got := decodeWire(stored); !bytes.Equal(got, wire) {
		t.Fatal("tagF32 decode not byte-identical")
	}
	if got := storedTS(stored); got != 4321 {
		t.Fatalf("storedTS = %d, want 4321", got)
	}

	// Bytes that do not parse as a hidden record (length not 8+4k) must
	// stay raw so the store never destroys what it does not understand.
	junk := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // (10-8)%4 != 0
	stored = encodeStored(nil, CodecF32, junk)
	if stored[0] != tagRaw {
		t.Fatalf("malformed value tagged %d, want tagRaw", stored[0])
	}
	if got := decodeWire(stored); !bytes.Equal(got, junk) {
		t.Fatal("raw fallback decode not byte-identical")
	}
}

// TestCodecF32ReopenUnderDifferentCodec is the self-describing-tag
// property across codec changes: entries written under CodecF32 survive a
// reopen under CodecInt8 byte-identically (their own tag decodes them, not
// the store's option), new puts use the new codec, and a third reopen under
// CodecF32 still reads both generations correctly.
func TestCodecF32ReopenUnderDifferentCodec(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Codec: CodecF32, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("h:%d", i)
		v := wireState(16, uint64(i)+1, int64(1000+i))
		s.Put(k, v)
		want[k] = append([]byte(nil), v...)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir, Codec: CodecInt8, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		got, ok := r.Get(k)
		if !ok {
			t.Fatalf("f32-written state %s lost under int8 reopen", k)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("f32-written state %s not byte-identical under int8 reopen", k)
		}
	}
	// A new put under the int8 codec quantizes (lossy): the stored bytes
	// shrink and the round trip is no longer exact for arbitrary floats.
	full := wireState(16, 99, 2000)
	r.Put("h:int8", full)
	got, _ := r.Get("h:int8")
	if bytes.Equal(got, full) {
		t.Fatal("int8 codec round trip unexpectedly exact — codec option ignored?")
	}
	want["h:int8"] = got
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Third generation: reopen under CodecF32 again. Both the f32 and int8
	// entries must decode by their own tags.
	r2, err := Open(Options{Dir: dir, Codec: CodecF32, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for k, v := range want {
		got, ok := r2.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("state %s wrong after third-generation reopen", k)
		}
	}
}

// TestCodecF32CrashRecoveryTruncationBoundaries is the tagF32 analogue of
// TestCrashRecoveryEveryTruncationBoundary: for every byte boundary of the
// last WAL record, recovery must keep every earlier f32-tagged state
// byte-identical and apply the torn record all-or-nothing.
func TestCodecF32CrashRecoveryTruncationBoundaries(t *testing.T) {
	const n = 12
	const dim = 8
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Codec: CodecF32, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	var lastKey string
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("h:%d", i)
		v := wireState(dim, uint64(i)+1, int64(1000+i))
		s.Put(k, v)
		want[k] = append([]byte(nil), v...)
		lastKey = k
	}
	// Simulated crash: abandon without Close.
	full, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	// Tagged value is 1 (tag) + wire bytes — same framing as tagRaw.
	lastFrame := recordHeaderLen + len(lastKey) + (1 + len(want[lastKey])) + recordTrailerLen
	lastOff := len(full) - lastFrame
	if lastOff < 0 {
		t.Fatalf("frame arithmetic wrong: wal %dB, last frame %dB", len(full), lastFrame)
	}

	for cut := lastOff; cut <= len(full); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(Options{Dir: cutDir, Codec: CodecF32})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		wantTorn := cut < len(full)
		for k, v := range want {
			got, ok := r.Get(k)
			if k == lastKey && wantTorn {
				if ok {
					t.Fatalf("cut=%d: torn record half-applied", cut)
				}
				continue
			}
			if !ok {
				t.Fatalf("cut=%d: surviving state %s lost", cut, k)
			}
			if !bytes.Equal(got, v) {
				t.Fatalf("cut=%d: state %s not byte-identical", cut, k)
			}
		}
		r.Close()
	}
}

// TestExportImportMixedTags moves entries from an f32-codec store and an
// int8-codec store into one destination: the self-describing tags must keep
// every imported entry decoding exactly as its source served it, across the
// destination's WAL reopen.
func TestExportImportMixedTags(t *testing.T) {
	f32Src, err := Open(Options{Codec: CodecF32, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	int8Src, err := Open(Options{Codec: CodecInt8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("h:f32-%d", i)
		f32Src.Put(k, wireState(8, uint64(i)+1, int64(100+i)))
		want[k], _ = f32Src.Get(k)
	}
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("h:int8-%d", i)
		int8Src.Put(k, wireState(8, uint64(i)+21, int64(200+i)))
		want[k], _ = int8Src.Get(k)
	}

	dstDir := t.TempDir()
	dst, err := Open(Options{Dir: dstDir, Codec: CodecFloat32, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*Store{f32Src, int8Src} {
		err := src.Export(
			func(key string) bool { return strings.HasPrefix(key, "h:") },
			func(key string, stored []byte) error {
				dst.Import(key, stored)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range want {
		got, ok := dst.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("imported state %s differs from its source's wire value", k)
		}
	}
	// DecodeStoredValue must handle the mixed tags too.
	err = dst.Export(
		func(string) bool { return true },
		func(key string, stored []byte) error {
			if !bytes.Equal(DecodeStoredValue(stored), want[key]) {
				return fmt.Errorf("DecodeStoredValue mismatch for %s", key)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	// The mixed-tag population must survive the destination's WAL.
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dstDir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, v := range want {
		got, ok := re.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("mixed-tag state %s wrong after reopen", k)
		}
	}
}
