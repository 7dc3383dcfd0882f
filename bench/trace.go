package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op (<workload>/<client>/<seq>); Parent is the span
// that caused this one (0 for a root). Counts are taken at the same
// boundary as the times. Projected marks a child measured by replaying
// the parent's work on a twin volume right after it, and placed at the
// parent's start so that "span minus children" gives the parent's self
// time — the program under test has no spans of its own yet.
type span struct {
	ID        int64            `json:"id"`
	Parent    int64            `json:"parent,omitempty"`
	Name      string           `json:"name"`
	Op        string           `json:"op"`
	Start     int64            `json:"start_ns"`
	End       int64            `json:"end_ns"`
	Counts    map[string]int64 `json:"counts,omitempty"`
	Projected bool             `json:"projected,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// means tracing is off; callers check for nil on the hot path.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newID() int64 { return r.nextID.Add(1) }

// now is nanoseconds since the recorder's epoch.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far, ordered by start.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns every span's self time: its duration minus the
// part of its interval that its children cover (overlapping children
// are counted once).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// checkNesting verifies the span tree: every parent exists, every
// child lies inside its parent and shares its op, and no span ends
// before it starts.
func checkNesting(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %s: parent %d not recorded", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] outside parent %d %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if s.Op != p.Op {
			return fmt.Errorf("span %d %s op %q differs from parent's %q", s.ID, s.Name, s.Op, p.Op)
		}
	}
	return nil
}

// spanFile is the on-disk form of one workload's traced round.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// writeSpans writes one workload's spans to <dir>/<workload>.spans.json.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	data, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// spanDurations collects the durations in ms of every span of a name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}
