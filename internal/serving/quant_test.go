package serving

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func TestQuantizedCodecRoundTrip(t *testing.T) {
	h := tensor.Vector{0, 0.5, -0.5, 1, -1, 0.123, -0.987}
	buf := EncodeHiddenQuantized(h, 42)
	if len(buf) != QuantizedValueBytes(len(h)) {
		t.Fatalf("size: %d", len(buf))
	}
	got, ts, ok := DecodeHiddenQuantized(buf)
	if !ok || ts != 42 || len(got) != len(h) {
		t.Fatalf("decode failed")
	}
	for i := range h {
		if math.Abs(got[i]-h[i]) > 1.0/127+1e-9 {
			t.Fatalf("quantization error too large at %d: %v vs %v", i, got[i], h[i])
		}
	}
}

func TestQuantizedCodecClamps(t *testing.T) {
	h := tensor.Vector{5, -5}
	got, _, _ := DecodeHiddenQuantized(EncodeHiddenQuantized(h, 1))
	if got[0] != 1 || got[1] != -1 {
		t.Fatalf("out-of-range values must clamp to ±1: %v", got)
	}
}

func TestQuantizedCodecRejectsShort(t *testing.T) {
	if _, _, ok := DecodeHiddenQuantized([]byte{1}); ok {
		t.Fatalf("short buffer must fail")
	}
}

func TestQuantizedSizeIsQuarter(t *testing.T) {
	// §9: single bytes instead of floats — a 4× vector-size reduction.
	full := HiddenValueBytes(128) - 8
	quant := QuantizedValueBytes(128) - 8
	if full != 4*quant {
		t.Fatalf("quantized vector should be 4x smaller: %d vs %d", full, quant)
	}
}

// Property: the round-trip is idempotent (quantizing twice changes
// nothing) and error-bounded.
func TestQuantizeRoundTripProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		h := tensor.NewVector(1 + rng.Intn(64))
		rng.FillUniform(h, -1, 1)
		q1 := QuantizeRoundTrip(h)
		q2 := QuantizeRoundTrip(q1)
		for i := range q1 {
			if q1[i] != q2[i] {
				return false
			}
			if math.Abs(q1[i]-h[i]) > 1.0/127+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizedEvaluationNearLossless(t *testing.T) {
	// End-to-end: int8 hidden states must barely change a trained model's
	// PR-AUC (the §9 quantization claim).
	mtCfg := synth.DefaultMobileTab()
	mtCfg.Users = 120
	data := synth.GenerateMobileTab(mtCfg)
	split := dataset.SplitUsers(data, 0.3, 17)

	cfg := core.DefaultConfig()
	cfg.HiddenDim = 16
	cfg.MLPHidden = 16
	m := core.New(data.Schema, cfg)
	tc := core.DefaultTrainConfig()
	tc.Epochs = 2
	tc.BatchUsers = 4
	tc.LR = 2e-3
	core.NewTrainer(m, tc).Train(split.Train)

	cutoff := data.CutoffForLastDays(7)
	s32, l32 := m.EvaluateSessions(split.Test, cutoff)
	s8, l8 := m.EvaluateSessionsTransformed(split.Test, cutoff, QuantizeRoundTrip)
	if len(s32) != len(s8) {
		t.Fatalf("prediction counts differ")
	}
	a32 := metrics.PRAUC(s32, l32)
	a8 := metrics.PRAUC(s8, l8)
	if math.Abs(a32-a8) > 0.02 {
		t.Fatalf("quantization changed PR-AUC too much: %v vs %v", a32, a8)
	}
	// Individual scores move only slightly.
	var maxDiff float64
	for i := range s32 {
		if d := math.Abs(s32[i] - s8[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.1 {
		t.Fatalf("max per-score quantization drift: %v", maxDiff)
	}
	_ = l8
}

// EncodeHiddenQuantized serialises (hidden, lastTS) at one byte per
// dimension. The codec tests above exercise QuantizeSample and
// DequantizeSample through it.
func EncodeHiddenQuantized(h tensor.Vector, lastTS int64) []byte {
	buf := make([]byte, 8+len(h))
	binary.LittleEndian.PutUint64(buf, uint64(lastTS))
	for i, v := range h {
		buf[8+i] = byte(QuantizeSample(v))
	}
	return buf
}

// DecodeHiddenQuantized reverses EncodeHiddenQuantized.
func DecodeHiddenQuantized(buf []byte) (h tensor.Vector, lastTS int64, ok bool) {
	if len(buf) < 8 {
		return nil, 0, false
	}
	lastTS = int64(binary.LittleEndian.Uint64(buf))
	h = tensor.NewVector(len(buf) - 8)
	for i := range h {
		h[i] = DequantizeSample(int8(buf[8+i]))
	}
	return h, lastTS, true
}
