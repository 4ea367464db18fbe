package synth

import (
	"repro/internal/dataset"
	"repro/internal/tensor"
)

// TimeshiftConfig parameterises the Timeshift generator (§4.2): during
// off-peak hours, predict whether the user will need a data-query result in
// a session during the next day's peak window. One labelled example per
// user per day.
type TimeshiftConfig struct {
	Users int
	Days  int
	Seed  uint64
	Start int64
	// NeverAccessFrac is the fraction of users with zero accesses
	// (Figure 1 shows ≈42% in production).
	NeverAccessFrac float64
	// PeakStartHour/PeakEndHour bound the daily peak window in UTC hours.
	PeakStartHour, PeakEndHour int
}

// DefaultTimeshift returns a single-core-scaled configuration.
func DefaultTimeshift() TimeshiftConfig {
	return TimeshiftConfig{
		Users:           4000,
		Days:            dataset.ObservationDays,
		Seed:            2,
		Start:           DefaultStart,
		NeverAccessFrac: 0.25,
		PeakStartHour:   17,
		PeakEndHour:     21,
	}
}

// TimeshiftSchema returns the context schema: only the session timestamp
// and a peak-hours flag are recorded (§4.2 — "any additional context
// quickly loses relevance by prediction time").
func TimeshiftSchema(peakStart, peakEnd int) *dataset.Schema {
	return &dataset.Schema{
		Name:          "Timeshift",
		SessionLength: 20 * 60,
		Cat: []dataset.CatFeature{
			{Name: "is_peak", Cardinality: 2},
		},
		HasPeakWindows: true,
		PeakStartHour:  peakStart,
		PeakEndHour:    peakEnd,
	}
}

// GenerateTimeshift produces a synthetic Timeshift dataset: website
// sessions with a peak-hours flag, plus one PeakWindow example per user per
// day whose label is whether any session in the window used the data query.
//
// Mechanisms: whether the user needs the query during a given peak window
// depends on a weekly rhythm (weekday vs weekend), a multi-day engagement
// streak (users who needed it recently need it again), and overall
// engagement level — learnable from timestamps and past labels alone, which
// is all the timeshift problem provides at prediction time (§3.2.1, eq. 3).
func GenerateTimeshift(cfg TimeshiftConfig) *dataset.Dataset {
	if cfg.Start == 0 {
		cfg.Start = DefaultStart
	}
	if cfg.PeakEndHour == 0 {
		cfg.PeakStartHour, cfg.PeakEndHour = 17, 21
	}
	schema := TimeshiftSchema(cfg.PeakStartHour, cfg.PeakEndHour)
	d := &dataset.Dataset{
		Schema: schema,
		Start:  cfg.Start,
		End:    cfg.Start + int64(cfg.Days)*dataset.Day,
		Users:  make([]*dataset.User, cfg.Users),
	}
	root := tensor.NewRNG(cfg.Seed)

	for ui := 0; ui < cfg.Users; ui++ {
		rng := root.Fork(uint64(ui))
		p := sampleProfile(rng, cfg.NeverAccessFrac)
		// Peak hours are peak hours *because* most users browse then: bias
		// the majority of users' primary diurnal bump into the peak window
		// so the population-level load curve has the evening peak the
		// timeshift problem exists to smooth (§3.2.1).
		if rng.Bernoulli(0.7) {
			p.peakHour1 = float64(cfg.PeakStartHour) +
				float64(cfg.PeakEndHour-cfg.PeakStartHour)*rng.Float64()
		}
		// Weekday preference: some users need the query for work (weekday
		// peak), others socially (weekend peak).
		weekdayUser := rng.Bernoulli(0.65)
		// Multi-day streak state: analogous to the session-level
		// engagement chain but at day granularity.
		streak := false

		u := &dataset.User{ID: ui}
		times := sampleSessionTimes(rng, p, cfg.Start, cfg.Days)
		u.Sessions = make([]dataset.Session, 0, len(times))
		u.Windows = make([]dataset.PeakWindow, 0, cfg.Days)

		// Peak windows are anchored to UTC calendar days; the observation
		// window may start mid-day, so one extra day index can appear at
		// the tail (sessions there feed history but have no window).
		anchor := cfg.Start - cfg.Start%dataset.Day
		needByDay := make([]bool, cfg.Days+1)
		for day := 0; day <= cfg.Days; day++ {
			dayStart := anchor + int64(day)*dataset.Day
			dow := dayOfWeek(dayStart)
			isWeekend := dow == 5 || dow == 6
			logit := p.bias + 1.55 // day-level events are rarer per unit but aggregated over a window
			if streak {
				logit += 1.7
			}
			if weekdayUser != isWeekend {
				logit += 0.8
			} else {
				logit -= 0.8
			}
			need := !p.neverAccess && rng.Bernoulli(logistic(logit))
			needByDay[day] = need
			// Streak persists with 85%, re-ignites with the day's outcome.
			if need {
				streak = true
			} else if streak && rng.Bernoulli(0.5) {
				streak = false
			}
		}

		peakStartSec := int64(cfg.PeakStartHour) * 3600
		peakEndSec := int64(cfg.PeakEndHour) * 3600
		accessedByDay := make([]bool, cfg.Days+1)
		for _, ts := range times {
			day := int((ts - anchor) / dataset.Day)
			secOfDay := ts % dataset.Day
			isPeak := secOfDay >= peakStartSec && secOfDay < peakEndSec
			access := false
			if isPeak && needByDay[day] {
				// The query is used in most peak sessions on "need" days.
				access = rng.Bernoulli(0.75)
			} else if !isPeak && needByDay[day] {
				// The query also gets used off-peak on "need" days — the
				// morning sessions of a need day are a same-day signal
				// visible to the hidden state at prediction time (6 h
				// before the window) but invisible to day-granularity
				// baselines.
				access = rng.Bernoulli(0.22)
			}
			if isPeak && access {
				accessedByDay[day] = true
			}
			flag := 0
			if isPeak {
				flag = 1
			}
			u.Sessions = append(u.Sessions, dataset.Session{
				Timestamp: ts,
				Access:    access,
				Cat:       []int{flag},
			})
		}
		for day := 0; day < cfg.Days; day++ {
			dayStart := anchor + int64(day)*dataset.Day
			ws, we := dayStart+peakStartSec, dayStart+peakEndSec
			if ws < cfg.Start {
				// The first partial day has no complete peak window.
				continue
			}
			u.Windows = append(u.Windows, dataset.PeakWindow{
				Day:      day,
				Start:    ws,
				End:      we,
				Accessed: accessedByDay[day],
			})
		}
		d.Users[ui] = u
	}
	return d
}
