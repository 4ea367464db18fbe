package dataset

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func sampleSchema() *Schema {
	return &Schema{
		Name:          "test",
		SessionLength: 1200,
		Cat: []CatFeature{
			{Name: "unread", Cardinality: 100},
			{Name: "tab", Cardinality: 97},
		},
	}
}

func sampleDataset(numUsers, sessionsPerUser int, seed uint64) *Dataset {
	rng := tensor.NewRNG(seed)
	schema := sampleSchema()
	start := int64(1_600_000_000)
	end := start + ObservationDays*Day
	d := &Dataset{Schema: schema, Start: start, End: end}
	for i := 0; i < numUsers; i++ {
		u := &User{ID: i}
		ts := start
		for j := 0; j < sessionsPerUser; j++ {
			ts += int64(rng.Intn(int(Day / 2)))
			if ts >= end {
				break
			}
			u.Sessions = append(u.Sessions, Session{
				Timestamp: ts,
				Access:    rng.Bernoulli(0.3),
				Cat:       []int{rng.Intn(100), rng.Intn(97)},
			})
		}
		d.Users = append(d.Users, u)
	}
	return d
}

func TestSchemaValidate(t *testing.T) {
	s := sampleSchema()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	if s.CatDim() != 197 {
		t.Fatalf("CatDim: got %d, want 197", s.CatDim())
	}

	bad := *s
	bad.SessionLength = 0
	if bad.Validate() == nil {
		t.Fatalf("zero session length must fail")
	}

	bad = *s
	bad.Cat = []CatFeature{{Name: "x", Cardinality: 0}}
	if bad.Validate() == nil {
		t.Fatalf("zero cardinality must fail")
	}

	bad = *s
	bad.HasPeakWindows = true
	bad.PeakStartHour, bad.PeakEndHour = 20, 10
	if bad.Validate() == nil {
		t.Fatalf("inverted peak window must fail")
	}
}

func TestUserAccessStats(t *testing.T) {
	u := &User{Sessions: []Session{
		{Timestamp: 1, Access: true},
		{Timestamp: 2, Access: false},
		{Timestamp: 3, Access: true},
		{Timestamp: 4, Access: false},
	}}
	if u.AccessCount() != 2 {
		t.Fatalf("AccessCount: got %d", u.AccessCount())
	}
	if u.AccessRate() != 0.5 {
		t.Fatalf("AccessRate: got %v", u.AccessRate())
	}
	empty := &User{}
	if empty.AccessRate() != 0 {
		t.Fatalf("empty user AccessRate must be 0")
	}
}

func TestDatasetCounters(t *testing.T) {
	d := sampleDataset(10, 20, 1)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	n := 0
	for _, u := range d.Users {
		n += len(u.Sessions)
	}
	if d.NumSessions() != n || d.NumExamples() != n {
		t.Fatalf("session counts inconsistent")
	}
	pr := d.PositiveRate()
	if pr < 0.15 || pr > 0.45 {
		t.Fatalf("positive rate implausible for p=0.3: %v", pr)
	}
	rates := d.AccessRates()
	if len(rates) != len(d.Users) {
		t.Fatalf("AccessRates length mismatch")
	}
}

func TestPeakWindowExampleCounting(t *testing.T) {
	schema := &Schema{Name: "ts", SessionLength: 1200, HasPeakWindows: true, PeakStartHour: 17, PeakEndHour: 21}
	d := &Dataset{Schema: schema, Start: 0, End: 30 * Day}
	u := &User{ID: 0}
	for day := 0; day < 30; day++ {
		u.Windows = append(u.Windows, PeakWindow{
			Day:      day,
			Start:    int64(day)*Day + 17*3600,
			End:      int64(day)*Day + 21*3600,
			Accessed: day%3 == 0,
		})
	}
	d.Users = []*User{u}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d.NumExamples() != 30 {
		t.Fatalf("NumExamples: got %d, want 30", d.NumExamples())
	}
	if got := d.PositiveRate(); got != 10.0/30 {
		t.Fatalf("PositiveRate: got %v", got)
	}
	if got := d.AccessRates()[0]; got != 10.0/30 {
		t.Fatalf("AccessRates: got %v", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := sampleDataset(3, 10, 2)

	d.Users[0].Sessions[0].Cat[0] = 1000
	if d.Validate() == nil {
		t.Fatalf("out-of-range categorical must fail")
	}
	d.Users[0].Sessions[0].Cat[0] = 0

	d.Users[1].Sessions[0].Timestamp = d.End + 1
	if d.Validate() == nil {
		t.Fatalf("out-of-window timestamp must fail")
	}
}

func TestDayOfAndCutoff(t *testing.T) {
	d := sampleDataset(1, 5, 3)
	cutoff := d.CutoffForLastDays(7)
	if d.End-cutoff != 7*Day {
		t.Fatalf("CutoffForLastDays: got %d", d.End-cutoff)
	}
}

func TestSplitUsersPartition(t *testing.T) {
	d := sampleDataset(100, 5, 4)
	sp := SplitUsers(d, 0.1, 42)
	if len(sp.Test.Users) != 10 || len(sp.Train.Users) != 90 {
		t.Fatalf("split sizes: %d/%d", len(sp.Train.Users), len(sp.Test.Users))
	}
	seen := map[int]int{}
	for _, u := range sp.Train.Users {
		seen[u.ID]++
	}
	for _, u := range sp.Test.Users {
		seen[u.ID]++
	}
	if len(seen) != 100 {
		t.Fatalf("split lost users: %d", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("user %d appears %d times", id, n)
		}
	}
}

func TestSplitUsersDeterministic(t *testing.T) {
	d := sampleDataset(50, 5, 5)
	a := SplitUsers(d, 0.2, 7)
	b := SplitUsers(d, 0.2, 7)
	for i := range a.Test.Users {
		if a.Test.Users[i].ID != b.Test.Users[i].ID {
			t.Fatalf("split must be deterministic for one seed")
		}
	}
	c := SplitUsers(d, 0.2, 8)
	diff := false
	for i := range a.Test.Users {
		if a.Test.Users[i].ID != c.Test.Users[i].ID {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatalf("different seeds should give different splits")
	}
}

func TestKFoldPartition(t *testing.T) {
	d := sampleDataset(101, 3, 6)
	folds := KFold(d, 4, 9)
	if len(folds) != 4 {
		t.Fatalf("fold count: %d", len(folds))
	}
	testCount := map[int]int{}
	for _, f := range folds {
		if len(f.Train.Users)+len(f.Test.Users) != 101 {
			t.Fatalf("fold does not cover all users")
		}
		inTrain := map[int]bool{}
		for _, u := range f.Train.Users {
			inTrain[u.ID] = true
		}
		for _, u := range f.Test.Users {
			if inTrain[u.ID] {
				t.Fatalf("user %d in both train and test of one fold", u.ID)
			}
			testCount[u.ID]++
		}
	}
	if len(testCount) != 101 {
		t.Fatalf("every user must appear in exactly one test fold; got %d", len(testCount))
	}
	for id, n := range testCount {
		if n != 1 {
			t.Fatalf("user %d in %d test folds", id, n)
		}
	}
}

func TestKFoldPanics(t *testing.T) {
	d := sampleDataset(3, 2, 10)
	for _, k := range []int{1, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("KFold(k=%d) must panic", k)
				}
			}()
			KFold(d, k, 1)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("KFold with too few users must panic")
			}
		}()
		KFold(d, 4, 1)
	}()
}

func TestTruncateHistories(t *testing.T) {
	d := sampleDataset(5, 40, 11)
	trimmed := TruncateHistories(d, 10)
	for i, u := range trimmed.Users {
		if len(u.Sessions) > 10 {
			t.Fatalf("user %d still has %d sessions", i, len(u.Sessions))
		}
		orig := d.Users[i].Sessions
		if len(orig) > 10 {
			// Must keep the most recent sessions.
			if u.Sessions[0].Timestamp != orig[len(orig)-10].Timestamp {
				t.Fatalf("truncation must keep the suffix")
			}
		}
	}
	// Original untouched.
	for _, u := range d.Users {
		if len(u.Sessions) <= 10 {
			t.Fatalf("original dataset was mutated (or generator made too few sessions)")
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	d := sampleDataset(7, 15, 12)
	// Add peak windows to one user to exercise that path.
	d.Schema.HasPeakWindows = true
	d.Schema.PeakStartHour, d.Schema.PeakEndHour = 17, 21
	d.Users[0].Windows = []PeakWindow{{Day: 0, Start: d.Start, End: d.Start + 4*3600, Accessed: true}}

	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Schema.Name != d.Schema.Name || got.Schema.SessionLength != d.Schema.SessionLength {
		t.Fatalf("schema mismatch after round trip")
	}
	if got.Start != d.Start || got.End != d.End {
		t.Fatalf("window mismatch")
	}
	if len(got.Users) != len(d.Users) {
		t.Fatalf("user count mismatch")
	}
	for i, u := range got.Users {
		want := d.Users[i]
		if u.ID != want.ID || len(u.Sessions) != len(want.Sessions) {
			t.Fatalf("user %d mismatch", i)
		}
		for j, s := range u.Sessions {
			ws := want.Sessions[j]
			if s.Timestamp != ws.Timestamp || s.Access != ws.Access {
				t.Fatalf("session %d/%d mismatch", i, j)
			}
			for k := range s.Cat {
				if s.Cat[k] != ws.Cat[k] {
					t.Fatalf("cat %d/%d/%d mismatch", i, j, k)
				}
			}
		}
		if len(u.Windows) != len(want.Windows) {
			t.Fatalf("windows mismatch for user %d", i)
		}
	}
	if got.Users[0].Windows[0].Accessed != true {
		t.Fatalf("peak window label lost")
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a dataset"))); err == nil {
		t.Fatalf("garbage must be rejected")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatalf("empty input must be rejected")
	}
}

// Property: round-tripping any generated dataset through the codec
// preserves session counts and the positive rate exactly.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		d := sampleDataset(1+int(seed%8), 1+int(seed%25), seed)
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return got.NumSessions() == d.NumSessions() && got.PositiveRate() == d.PositiveRate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
