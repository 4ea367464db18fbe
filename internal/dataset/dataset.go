// Package dataset defines the access-log data model of the paper (§3, §4):
// per-user sequences of sessions, each carrying a start timestamp, a
// context, and a Boolean access flag. It also provides the user-based
// train/test splits, the k-fold cross-validation used for small datasets,
// and the peak-window labelling used by the timeshifted-precompute problem
// (§3.2.1).
package dataset

import (
	"fmt"
)

// Day is one day in seconds; the observation window of every dataset in the
// paper is 30 days.
const Day int64 = 24 * 3600

// ObservationDays is the length of the logging window in days.
const ObservationDays = 30

// CatFeature describes one categorical context variable.
type CatFeature struct {
	Name string
	// Cardinality is the number of distinct values after any hashing; the
	// paper hashes high-cardinality identifiers modulo 97 (§5.2).
	Cardinality int
}

// Schema describes the context layout of a dataset. All sessions in a
// dataset share one schema.
type Schema struct {
	Name string
	// SessionLength is the fixed session window in seconds (20 minutes for
	// MobileTab/Timeshift, 10 minutes for MPU).
	SessionLength int64
	Cat           []CatFeature
	// HasPeakWindows marks timeshift-style datasets whose training
	// examples are (user × peak window) pairs instead of sessions.
	HasPeakWindows bool
	// PeakStartHour/PeakEndHour bound the daily peak window (UTC hours)
	// for timeshift datasets.
	PeakStartHour, PeakEndHour int
}

// CatDim returns the total one-hot width of all categorical features.
func (s *Schema) CatDim() int {
	n := 0
	for _, c := range s.Cat {
		n += c.Cardinality
	}
	return n
}

// Validate checks internal consistency.
func (s *Schema) Validate() error {
	if s.SessionLength <= 0 {
		return fmt.Errorf("dataset: schema %q: non-positive session length", s.Name)
	}
	for _, c := range s.Cat {
		if c.Cardinality <= 0 {
			return fmt.Errorf("dataset: schema %q: feature %q has cardinality %d", s.Name, c.Name, c.Cardinality)
		}
	}
	if s.HasPeakWindows && !(0 <= s.PeakStartHour && s.PeakStartHour < s.PeakEndHour && s.PeakEndHour <= 24) {
		return fmt.Errorf("dataset: schema %q: bad peak window [%d, %d)", s.Name, s.PeakStartHour, s.PeakEndHour)
	}
	return nil
}

// Session is one application session: the context recorded at session start
// plus the access flag determined when the fixed-length window closes.
type Session struct {
	// Timestamp is the session start in Unix seconds.
	Timestamp int64
	// Access reports whether the activity was accessed within the session
	// window (the ground-truth label A_i).
	Access bool
	// Cat holds the categorical context values, one per Schema.Cat entry,
	// each in [0, Cardinality).
	Cat []int
}

// PeakWindow is one timeshift training example: did the user access the
// activity during the peak-hours window of day Day?
type PeakWindow struct {
	// Day indexes the observation day, 0-based.
	Day int
	// Start and End are the window bounds in Unix seconds.
	Start, End int64
	// Accessed is the ground-truth label PA_d.
	Accessed bool
}

// User is one user's complete access log, sorted by timestamp.
type User struct {
	ID       int
	Sessions []Session
	// Windows holds the per-day peak-window examples for timeshift
	// datasets; nil otherwise.
	Windows []PeakWindow
}

// AccessCount returns the number of sessions with a recorded access.
func (u *User) AccessCount() int {
	n := 0
	for _, s := range u.Sessions {
		if s.Access {
			n++
		}
	}
	return n
}

// AccessRate returns the fraction of sessions with an access (0 if the user
// has no sessions).
func (u *User) AccessRate() float64 {
	if len(u.Sessions) == 0 {
		return 0
	}
	return float64(u.AccessCount()) / float64(len(u.Sessions))
}

// Dataset is a complete access-log corpus: a schema, the observation window
// and the users.
type Dataset struct {
	Schema *Schema
	// Start and End bound the observation window in Unix seconds; labels
	// and sessions all fall inside [Start, End).
	Start, End int64
	Users      []*User
}

// NumSessions returns the total session count across users.
func (d *Dataset) NumSessions() int {
	n := 0
	for _, u := range d.Users {
		n += len(u.Sessions)
	}
	return n
}

// NumExamples returns the number of labelled training examples: sessions
// for session datasets, peak windows for timeshift datasets (§4.4).
func (d *Dataset) NumExamples() int {
	if d.Schema.HasPeakWindows {
		n := 0
		for _, u := range d.Users {
			n += len(u.Windows)
		}
		return n
	}
	return d.NumSessions()
}

// PositiveRate returns the fraction of positive labels over all examples.
func (d *Dataset) PositiveRate() float64 {
	pos, total := 0, 0
	if d.Schema.HasPeakWindows {
		for _, u := range d.Users {
			for _, w := range u.Windows {
				total++
				if w.Accessed {
					pos++
				}
			}
		}
	} else {
		for _, u := range d.Users {
			for _, s := range u.Sessions {
				total++
				if s.Access {
					pos++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(pos) / float64(total)
}

// AccessRates returns the per-user access rate for every user, in user
// order. For timeshift datasets the rate is over peak windows (the unit of
// labelling), matching Figure 1.
func (d *Dataset) AccessRates() []float64 {
	rates := make([]float64, len(d.Users))
	for i, u := range d.Users {
		if d.Schema.HasPeakWindows {
			if len(u.Windows) == 0 {
				continue
			}
			n := 0
			for _, w := range u.Windows {
				if w.Accessed {
					n++
				}
			}
			rates[i] = float64(n) / float64(len(u.Windows))
		} else {
			rates[i] = u.AccessRate()
		}
	}
	return rates
}

// Validate checks dataset invariants: schema validity, sorted sessions,
// in-window timestamps and in-range categorical values.
func (d *Dataset) Validate() error {
	if err := d.Schema.Validate(); err != nil {
		return err
	}
	if d.End <= d.Start {
		return fmt.Errorf("dataset %q: empty observation window", d.Schema.Name)
	}
	for _, u := range d.Users {
		var prev int64 = -1 << 62
		for i, s := range u.Sessions {
			if s.Timestamp < prev {
				return fmt.Errorf("dataset %q: user %d: sessions out of order at %d", d.Schema.Name, u.ID, i)
			}
			prev = s.Timestamp
			if s.Timestamp < d.Start || s.Timestamp >= d.End {
				return fmt.Errorf("dataset %q: user %d: session %d outside window", d.Schema.Name, u.ID, i)
			}
			if len(s.Cat) != len(d.Schema.Cat) {
				return fmt.Errorf("dataset %q: user %d: session %d has %d categorical values, schema has %d",
					d.Schema.Name, u.ID, i, len(s.Cat), len(d.Schema.Cat))
			}
			for j, v := range s.Cat {
				if v < 0 || v >= d.Schema.Cat[j].Cardinality {
					return fmt.Errorf("dataset %q: user %d: session %d: feature %q value %d out of range",
						d.Schema.Name, u.ID, i, d.Schema.Cat[j].Name, v)
				}
			}
		}
		if d.Schema.HasPeakWindows {
			for i, w := range u.Windows {
				if w.End <= w.Start {
					return fmt.Errorf("dataset %q: user %d: window %d is empty", d.Schema.Name, u.ID, i)
				}
			}
		}
	}
	return nil
}

// CutoffForLastDays returns the timestamp such that [cutoff, End) spans the
// final `days` days of the observation window. Training losses use the last
// 21 days (§6.3) and evaluation uses the last 7 (§8).
func (d *Dataset) CutoffForLastDays(days int) int64 {
	return d.End - int64(days)*Day
}
