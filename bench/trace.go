package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Spans of one repetition share Rep; Parent is the ID
// of the span that caused this one (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Rep     int    `json:"rep"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// recorder keeps spans in memory until the run ends. The nil recorder
// records nothing, so untraced runs share the code of traced ones.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records an already-timed span and returns its ID.
func (r *recorder) add(parent, rep int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Rep: rep, Name: name,
		StartNs: start.Sub(r.t0).Nanoseconds(), EndNs: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// start opens a span; the returned function closes it. The ID is valid
// at once, so children can name their parent while it is still open.
func (r *recorder) start(parent, rep int, name string) (id int, end func()) {
	if r == nil {
		return 0, func() {}
	}
	id = r.add(parent, rep, name, time.Now(), r.t0)
	return id, func() {
		now := time.Since(r.t0).Nanoseconds()
		r.mu.Lock()
		r.spans[id-1].EndNs = now
		r.mu.Unlock()
	}
}

// selfSeconds returns, per span ID, the span's duration minus the part of
// that interval its child spans cover (children may overlap each other).
func (r *recorder) selfSeconds() map[int]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]float64, len(r.spans))
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = float64(s.EndNs-s.StartNs-covered) / 1e9
	}
	return self
}

// coverage is the share of the root span's time that its descendants'
// self times account for: 1 minus the root's own self time over its
// duration. A low value means the layer spans miss part of the job.
func (r *recorder) coverage(root int) float64 {
	self := r.selfSeconds()
	r.mu.Lock()
	s := r.spans[root-1]
	r.mu.Unlock()
	d := float64(s.EndNs-s.StartNs) / 1e9
	if d <= 0 {
		return 0
	}
	return 1 - self[root]/d
}

func (r *recorder) writeJSON(path string) error {
	r.mu.Lock()
	raw, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
