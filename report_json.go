package trigene

import (
	"encoding/json"
	"time"
)

// Stable JSON codec for Report — its public format: `trigened result`,
// `epistasis -json` and the cluster client's merged results speak it,
// and MergeReports accepts Reports that round-tripped through it (the
// objective's ordering is rebuilt from the Objective name, and the
// requested top-K depth is carried as "topKLimit" so a merge of
// deserialized shard Reports fills the same depth as an in-process
// merge — a shard whose own list is short must not shrink the merged
// list). Inside the cluster a search tile's Report travels in the
// compact binary form of report_binary.go instead, and a worker under a
// coordinator that predates it posts this one.
//
// The schema is versioned by field presence, not a version number:
// fields are only ever added, never renamed or re-typed. Durations
// travel as integer nanoseconds.

// wireReport is the serialized shape of a Report.
type wireReport struct {
	Backend        string            `json:"backend"`
	Approach       string            `json:"approach"`
	Objective      string            `json:"objective"`
	Order          int               `json:"order"`
	Best           SearchCandidate   `json:"best"`
	TopK           []SearchCandidate `json:"topK,omitempty"`
	TopKLimit      int               `json:"topKLimit,omitempty"`
	Combinations   int64             `json:"combinations"`
	Elements       float64           `json:"elements"`
	DurationNs     int64             `json:"durationNs"`
	ElementsPerSec float64           `json:"elementsPerSec"`
	Shard          *ShardInfo        `json:"shard,omitempty"`
	GPU            *GPUStats         `json:"gpu,omitempty"`
	Hetero         *HeteroInfo       `json:"hetero,omitempty"`
	Screen         *ScreenInfo       `json:"screen,omitempty"`
	Perm           *PermInfo         `json:"perm,omitempty"`
	Trace          *TraceInfo        `json:"trace,omitempty"`
}

// MarshalJSON implements the stable Report wire format.
func (r Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireReport{
		Backend:        r.Backend,
		Approach:       r.Approach,
		Objective:      r.Objective,
		Order:          r.Order,
		Best:           r.Best,
		TopK:           r.TopK,
		TopKLimit:      r.topK,
		Combinations:   r.Combinations,
		Elements:       r.Elements,
		DurationNs:     int64(r.Duration),
		ElementsPerSec: r.ElementsPerSec,
		Shard:          r.Shard,
		GPU:            r.GPU,
		Hetero:         r.Hetero,
		Screen:         r.Screen,
		Perm:           r.Perm,
		Trace:          r.Trace,
	})
}

// UnmarshalJSON implements the stable Report wire format.
func (r *Report) UnmarshalJSON(data []byte) error {
	var w wireReport
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Report{
		Backend:        w.Backend,
		Approach:       w.Approach,
		Objective:      w.Objective,
		Order:          w.Order,
		Best:           w.Best,
		TopK:           w.TopK,
		topK:           w.TopKLimit,
		Combinations:   w.Combinations,
		Elements:       w.Elements,
		Duration:       time.Duration(w.DurationNs),
		ElementsPerSec: w.ElementsPerSec,
		Shard:          w.Shard,
		GPU:            w.GPU,
		Hetero:         w.Hetero,
		Screen:         w.Screen,
		Perm:           w.Perm,
		Trace:          w.Trace,
	}
	return nil
}
