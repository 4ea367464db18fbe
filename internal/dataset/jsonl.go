package dataset

import (
	"bufio"
	"encoding/json"
	"io"
)

// JSONL export: one JSON object per line, a header line followed by user
// lines. The binary codec (codec.go) is the compact native format that the
// binaries read back; JSONL exists so external tooling (pandas, jq) can
// consume generated datasets.

type jsonlHeader struct {
	Kind           string       `json:"kind"` // "ppds-header"
	SchemaName     string       `json:"schema"`
	SessionLength  int64        `json:"session_length"`
	Cat            []CatFeature `json:"cat"`
	HasPeakWindows bool         `json:"has_peak_windows,omitempty"`
	PeakStartHour  int          `json:"peak_start_hour,omitempty"`
	PeakEndHour    int          `json:"peak_end_hour,omitempty"`
	Start          int64        `json:"start"`
	End            int64        `json:"end"`
}

type jsonlSession struct {
	Ts     int64 `json:"ts"`
	Access bool  `json:"access"`
	Cat    []int `json:"cat"`
}

type jsonlWindow struct {
	Day      int   `json:"day"`
	Start    int64 `json:"start"`
	End      int64 `json:"end"`
	Accessed bool  `json:"accessed"`
}

type jsonlUser struct {
	Kind     string         `json:"kind"` // "user"
	ID       int            `json:"id"`
	Sessions []jsonlSession `json:"sessions"`
	Windows  []jsonlWindow  `json:"windows,omitempty"`
}

// WriteJSONL serialises d as JSON lines.
func WriteJSONL(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := jsonlHeader{
		Kind: "ppds-header", SchemaName: d.Schema.Name,
		SessionLength: d.Schema.SessionLength, Cat: d.Schema.Cat,
		HasPeakWindows: d.Schema.HasPeakWindows,
		PeakStartHour:  d.Schema.PeakStartHour, PeakEndHour: d.Schema.PeakEndHour,
		Start: d.Start, End: d.End,
	}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for _, u := range d.Users {
		ju := jsonlUser{Kind: "user", ID: u.ID}
		for _, s := range u.Sessions {
			ju.Sessions = append(ju.Sessions, jsonlSession{Ts: s.Timestamp, Access: s.Access, Cat: s.Cat})
		}
		for _, pw := range u.Windows {
			ju.Windows = append(ju.Windows, jsonlWindow{Day: pw.Day, Start: pw.Start, End: pw.End, Accessed: pw.Accessed})
		}
		if err := enc.Encode(ju); err != nil {
			return err
		}
	}
	return bw.Flush()
}
