package synth

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

func smallMobileTab(seed uint64) *dataset.Dataset {
	cfg := DefaultMobileTab()
	cfg.Users = 400
	cfg.Seed = seed
	return GenerateMobileTab(cfg)
}

func smallTimeshift(seed uint64) *dataset.Dataset {
	cfg := DefaultTimeshift()
	cfg.Users = 400
	cfg.Seed = seed
	return GenerateTimeshift(cfg)
}

func smallMPU(seed uint64) *dataset.Dataset {
	cfg := DefaultMPU()
	cfg.Users = 30
	cfg.MeanEventsPerDay = 20
	cfg.Seed = seed
	return GenerateMPU(cfg)
}

func TestMobileTabValid(t *testing.T) {
	d := smallMobileTab(1)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(d.Users) != 400 {
		t.Fatalf("user count: %d", len(d.Users))
	}
	if d.NumSessions() < 5000 {
		t.Fatalf("too few sessions: %d", d.NumSessions())
	}
}

func TestMobileTabPositiveRateBand(t *testing.T) {
	d := smallMobileTab(1)
	pr := d.PositiveRate()
	// Paper: 11.1%. Accept a generous band around it.
	if pr < 0.06 || pr > 0.20 {
		t.Fatalf("MobileTab positive rate %v outside [0.06, 0.20]", pr)
	}
}

func TestMobileTabNeverAccessFraction(t *testing.T) {
	d := smallMobileTab(2)
	zero := 0
	for _, u := range d.Users {
		if u.AccessCount() == 0 {
			zero++
		}
	}
	frac := float64(zero) / float64(len(d.Users))
	// Config sets 36% structurally-never users; random non-accessors in 30
	// days push the observed value a bit higher.
	if frac < 0.25 || frac > 0.55 {
		t.Fatalf("never-access fraction %v outside [0.25, 0.55]", frac)
	}
}

func TestMobileTabDeterminism(t *testing.T) {
	a, b := smallMobileTab(7), smallMobileTab(7)
	if a.NumSessions() != b.NumSessions() {
		t.Fatalf("same seed, different session counts")
	}
	for i := range a.Users {
		as, bs := a.Users[i].Sessions, b.Users[i].Sessions
		if len(as) != len(bs) {
			t.Fatalf("user %d: session count differs", i)
		}
		for j := range as {
			if as[j].Timestamp != bs[j].Timestamp || as[j].Access != bs[j].Access ||
				as[j].Cat[0] != bs[j].Cat[0] || as[j].Cat[1] != bs[j].Cat[1] {
				t.Fatalf("user %d session %d differs", i, j)
			}
		}
	}
	c := smallMobileTab(8)
	if c.NumSessions() == a.NumSessions() && c.PositiveRate() == a.PositiveRate() {
		t.Fatalf("different seeds should differ")
	}
}

func TestMobileTabContextPredictive(t *testing.T) {
	// The unread count must carry signal: access rate for unread ≥ 5 should
	// exceed access rate for unread == 0 by a wide margin.
	d := smallMobileTab(3)
	var hiPos, hiTot, loPos, loTot int
	for _, u := range d.Users {
		for _, s := range u.Sessions {
			if s.Cat[0] >= 5 {
				hiTot++
				if s.Access {
					hiPos++
				}
			} else if s.Cat[0] == 0 {
				loTot++
				if s.Access {
					loPos++
				}
			}
		}
	}
	hi := float64(hiPos) / float64(hiTot)
	lo := float64(loPos) / float64(loTot)
	if hi < lo*1.5 {
		t.Fatalf("unread badge not predictive: hi=%v lo=%v", hi, lo)
	}
}

func TestMobileTabHistoryPredictive(t *testing.T) {
	// Recency signal: sessions whose previous session had an access should
	// themselves access far more often (latent engagement).
	d := smallMobileTab(4)
	var afterPos, afterTot, coldPos, coldTot int
	for _, u := range d.Users {
		for i := 1; i < len(u.Sessions); i++ {
			if u.Sessions[i-1].Access {
				afterTot++
				if u.Sessions[i].Access {
					afterPos++
				}
			} else {
				coldTot++
				if u.Sessions[i].Access {
					coldPos++
				}
			}
		}
	}
	after := float64(afterPos) / float64(afterTot)
	cold := float64(coldPos) / float64(coldTot)
	if after < 2*cold {
		t.Fatalf("history not predictive: after=%v cold=%v", after, cold)
	}
}

func TestMobileTabGapsHeavyTailed(t *testing.T) {
	d := smallMobileTab(5)
	var gaps []float64
	for _, u := range d.Users {
		for i := 1; i < len(u.Sessions); i++ {
			gaps = append(gaps, float64(u.Sessions[i].Timestamp-u.Sessions[i-1].Timestamp))
		}
	}
	if len(gaps) < 1000 {
		t.Skip("not enough gaps")
	}
	// Heavy tail: the 99th percentile should exceed the median by >20x.
	med := quantile(gaps, 0.5)
	p99 := quantile(gaps, 0.99)
	if p99 < 20*med {
		t.Fatalf("gaps not heavy-tailed: median %v, p99 %v", med, p99)
	}
}

func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	// insertion-free quickselect substitute: simple sort.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

func TestTimeshiftValid(t *testing.T) {
	d := smallTimeshift(1)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !d.Schema.HasPeakWindows {
		t.Fatalf("timeshift must have peak windows")
	}
	for _, u := range d.Users {
		if len(u.Windows) != DefaultTimeshift().Days {
			t.Fatalf("user must have one window per day; got %d", len(u.Windows))
		}
	}
}

func TestTimeshiftPositiveRateBand(t *testing.T) {
	d := smallTimeshift(1)
	pr := peakWindowPositiveRate(d)
	// Paper: 7.1% over peak windows. Accept a band.
	if pr < 0.03 || pr > 0.16 {
		t.Fatalf("Timeshift positive rate %v outside [0.03, 0.16]", pr)
	}
	if d.PositiveRate() != pr {
		t.Fatalf("Dataset.PositiveRate must use windows for timeshift")
	}
}

func TestTimeshiftLabelsConsistentWithSessions(t *testing.T) {
	// A window labelled accessed=true must contain at least one
	// access-session inside its bounds, and vice versa.
	d := smallTimeshift(2)
	for _, u := range d.Users {
		inWindow := make(map[int]bool)
		for _, s := range u.Sessions {
			if !s.Access {
				continue
			}
			for wi, w := range u.Windows {
				if s.Timestamp >= w.Start && s.Timestamp < w.End {
					inWindow[wi] = true
					break
				}
			}
		}
		for wi, w := range u.Windows {
			if w.Accessed != inWindow[wi] {
				t.Fatalf("user %d day %d: label %v but sessions say %v",
					u.ID, w.Day, w.Accessed, inWindow[wi])
			}
		}
	}
}

func TestTimeshiftStreaky(t *testing.T) {
	// Day-level streaks: P(access day d | access day d-1) must be much
	// larger than the base rate — the sequence signal for the RNN.
	d := smallTimeshift(3)
	var afterPos, afterTot, basePos, baseTot int
	for _, u := range d.Users {
		for i := 1; i < len(u.Windows); i++ {
			baseTot++
			if u.Windows[i].Accessed {
				basePos++
			}
			if u.Windows[i-1].Accessed {
				afterTot++
				if u.Windows[i].Accessed {
					afterPos++
				}
			}
		}
	}
	after := float64(afterPos) / float64(afterTot)
	base := float64(basePos) / float64(baseTot)
	if after < 3*base {
		t.Fatalf("timeshift not streaky: after=%v base=%v", after, base)
	}
}

func TestMPUValid(t *testing.T) {
	d := smallMPU(1)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestMPUPositiveRateBand(t *testing.T) {
	d := smallMPU(1)
	pr := d.PositiveRate()
	// Paper: 39.7%.
	if pr < 0.25 || pr > 0.55 {
		t.Fatalf("MPU positive rate %v outside [0.25, 0.55]", pr)
	}
}

func TestMPULongHistories(t *testing.T) {
	d := smallMPU(2)
	mean := meanSessionsPerUser(d)
	if mean < 200 {
		t.Fatalf("MPU should have long histories; mean %v", mean)
	}
	// Long tail: max should well exceed the mean.
	maxN := 0
	for _, u := range d.Users {
		if len(u.Sessions) > maxN {
			maxN = len(u.Sessions)
		}
	}
	if float64(maxN) < 2*mean {
		t.Fatalf("MPU session counts should be long-tailed: mean %v max %d", mean, maxN)
	}
}

func TestMPUScreenStatePredictive(t *testing.T) {
	d := smallMPU(3)
	var byState [numScreenStates]struct{ pos, tot int }
	for _, u := range d.Users {
		for _, s := range u.Sessions {
			st := s.Cat[0]
			byState[st].tot++
			if s.Access {
				byState[st].pos++
			}
		}
	}
	unlocked := float64(byState[ScreenUnlocked].pos) / float64(byState[ScreenUnlocked].tot)
	off := float64(byState[ScreenOff].pos) / float64(byState[ScreenOff].tot)
	if unlocked < off*1.3 {
		t.Fatalf("screen state not predictive: unlocked=%v off=%v", unlocked, off)
	}
}

func TestMPUAppAffinityVaries(t *testing.T) {
	// Per-app open rates for a single user should be spread out, since
	// per-app affinity is the dominant signal.
	d := smallMPU(4)
	u := d.Users[0]
	pos := map[int]int{}
	tot := map[int]int{}
	for _, s := range u.Sessions {
		app := s.Cat[1]
		tot[app]++
		if s.Access {
			pos[app]++
		}
	}
	var lo, hi = 1.0, 0.0
	for app, n := range tot {
		if n < 30 {
			continue
		}
		r := float64(pos[app]) / float64(n)
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi-lo < 0.25 {
		t.Fatalf("per-app open rates should vary widely: lo=%v hi=%v", lo, hi)
	}
}

func TestHashMod97(t *testing.T) {
	seen := map[int]bool{}
	for raw := 0; raw < 1000; raw++ {
		h := hashMod97(raw)
		if h < 0 || h >= 97 {
			t.Fatalf("hashMod97 out of range: %d", h)
		}
		seen[h] = true
	}
	if len(seen) < 90 {
		t.Fatalf("hashMod97 poorly distributed: %d distinct of 97", len(seen))
	}
	if hashMod97(5) != hashMod97(5) {
		t.Fatalf("hash must be deterministic")
	}
}

func TestSampleSessionTimesOrderedAndBounded(t *testing.T) {
	rng := tensor.NewRNG(5)
	p := sampleProfile(rng, 0)
	p.dailyRate = 10
	start := DefaultStart
	times := sampleSessionTimes(rng, p, start, 10)
	end := start + 10*dataset.Day
	var prev int64 = -1
	for _, ts := range times {
		if ts <= prev {
			t.Fatalf("times must be strictly increasing")
		}
		if ts < start || ts >= end {
			t.Fatalf("time outside window")
		}
		prev = ts
	}
	if len(times) < 50 {
		t.Fatalf("expected ≈100 sessions, got %d", len(times))
	}
}

func TestEngagementDecaysOverGaps(t *testing.T) {
	// With enormous gaps the engaged state should almost always lapse.
	rng := tensor.NewRNG(6)
	p := sampleProfile(rng, 0)
	p.pEngage = 0 // never re-engage
	p.engageDecayHours = 10
	e := engagement{engaged: true, lastTS: 1000}
	e.step(rng, p, 1000+100*3600) // 100h gap, 10h half-life-scale
	if e.engaged {
		t.Fatalf("engagement should lapse after a 100h gap")
	}
}

func TestCircularHourDist(t *testing.T) {
	if d := circularHourDist(23, 1); d != 2 {
		t.Fatalf("wraparound distance: got %v", d)
	}
	if d := circularHourDist(6, 18); d != 12 {
		t.Fatalf("opposite hours: got %v", d)
	}
	if d := circularHourDist(5, 5); d != 0 {
		t.Fatalf("same hour: got %v", d)
	}
}

func TestSortInt64(t *testing.T) {
	a := []int64{5, 3, 9, 1, 1, 7, -2}
	sortInt64(a)
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			t.Fatalf("not sorted: %v", a)
		}
	}
	sortInt64(nil) // must not panic
	big := make([]int64, 3000)
	rng := tensor.NewRNG(9)
	for i := range big {
		big[i] = int64(rng.Uint64() % 100000)
	}
	sortInt64(big)
	for i := 1; i < len(big); i++ {
		if big[i-1] > big[i] {
			t.Fatalf("large sort failed at %d", i)
		}
	}
}

func TestDayOfWeekPeriod(t *testing.T) {
	for d := int64(0); d < 14; d++ {
		if dayOfWeek(d*dataset.Day+100) != int(d%7) {
			t.Fatalf("dayOfWeek period broken at day %d", d)
		}
	}
}

func TestLogisticRange(t *testing.T) {
	for _, x := range []float64{-50, -1, 0, 1, 50} {
		p := logistic(x)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("logistic(%v) = %v", x, p)
		}
	}
	if logistic(0) != 0.5 {
		t.Fatalf("logistic(0) != 0.5")
	}
}

// peakWindowPositiveRate returns the fraction of peak windows with an
// access.
func peakWindowPositiveRate(d *dataset.Dataset) float64 {
	pos, total := 0, 0
	for _, u := range d.Users {
		for _, w := range u.Windows {
			total++
			if w.Accessed {
				pos++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(pos) / float64(total)
}

// meanSessionsPerUser returns the mean session count per user.
func meanSessionsPerUser(d *dataset.Dataset) float64 {
	if len(d.Users) == 0 {
		return 0
	}
	return float64(d.NumSessions()) / float64(len(d.Users))
}
