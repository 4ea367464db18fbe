package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"
)

func TestJSONLRoundTrip(t *testing.T) {
	d := sampleDataset(5, 12, 77)
	d.Schema.HasPeakWindows = true
	d.Schema.PeakStartHour, d.Schema.PeakEndHour = 17, 21
	d.Users[0].Windows = []PeakWindow{{Day: 1, Start: d.Start + Day, End: d.Start + Day + 3600, Accessed: true}}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, d); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if got.Schema.Name != d.Schema.Name || got.NumSessions() != d.NumSessions() {
		t.Fatalf("round trip mismatch")
	}
	if got.PositiveRate() != d.PositiveRate() {
		t.Fatalf("positive rate changed")
	}
	if len(got.Users[0].Windows) != 1 || !got.Users[0].Windows[0].Accessed {
		t.Fatalf("windows lost")
	}
	for i, u := range got.Users {
		want := d.Users[i]
		for j, s := range u.Sessions {
			ws := want.Sessions[j]
			if s.Timestamp != ws.Timestamp || s.Access != ws.Access || s.Cat[0] != ws.Cat[0] {
				t.Fatalf("session %d/%d mismatch", i, j)
			}
		}
	}
}

// ReadJSONL deserialises a dataset written by WriteJSONL and validates
// it: the round-trip oracle for WriteJSONL.
func ReadJSONL(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("dataset: empty JSONL input")
	}
	var hdr jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("dataset: parsing header: %w", err)
	}
	if hdr.Kind != "ppds-header" {
		return nil, fmt.Errorf("dataset: first line is not a ppds-header")
	}
	d := &Dataset{
		Schema: &Schema{
			Name: hdr.SchemaName, SessionLength: hdr.SessionLength, Cat: hdr.Cat,
			HasPeakWindows: hdr.HasPeakWindows,
			PeakStartHour:  hdr.PeakStartHour, PeakEndHour: hdr.PeakEndHour,
		},
		Start: hdr.Start, End: hdr.End,
	}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ju jsonlUser
		if err := json.Unmarshal(sc.Bytes(), &ju); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if ju.Kind != "user" {
			return nil, fmt.Errorf("dataset: line %d: unexpected kind %q", line, ju.Kind)
		}
		u := &User{ID: ju.ID}
		for _, s := range ju.Sessions {
			cat := s.Cat
			if cat == nil {
				cat = []int{}
			}
			u.Sessions = append(u.Sessions, Session{Timestamp: s.Ts, Access: s.Access, Cat: cat})
		}
		for _, w := range ju.Windows {
			u.Windows = append(u.Windows, PeakWindow{Day: w.Day, Start: w.Start, End: w.End, Accessed: w.Accessed})
		}
		d.Users = append(d.Users, u)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, d.Validate()
}
