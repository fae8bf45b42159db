package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval. Spans of one request share Req; Parent
// is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Req    int64   `json:"req,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps the spans of a traced run in memory; they are written
// out once, when the run ends. A nil *tracer records nothing, so the
// untraced run calls the same code at the cost of a nil test.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Microsecond)
}

// begin opens a span now and returns its index (-1 when t is nil).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, req, time.Now(), time.Time{})
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.us(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span timed by the caller; a zero end leaves it open.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Parent: parent, Req: req, Start: t.us(start), End: -1}
	if !end.IsZero() {
		s.End = t.us(end)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// addUS records a span with start and end given in microseconds on the
// tracer's clock (for spans the program returned in a profile).
func (t *tracer) addUS(name string, parent int, req int64, start, end float64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: start, End: end})
	return len(t.spans) - 1
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, the total duration and the self
// time: each span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	agg := map[string]*spanStat{}
	for i, s := range t.spans {
		if s.End < s.Start {
			continue // never closed
		}
		// Union of the children's intervals, clipped to the span.
		type iv struct{ a, b float64 }
		var ivs []iv
		for _, c := range children[i] {
			cs := t.spans[c]
			a, b := max(cs.Start, s.Start), min(cs.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, curA, curB := 0.0, 0.0, -1.0
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		st := agg[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			agg[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMS += d / 1e3
		st.SelfMS += (d - covered) / 1e3
	}
	out := make([]spanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// printSelfTimes prints the per-name span summary.
func (t *tracer) printSelfTimes() {
	fmt.Printf("%-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range t.selfTimes() {
		fmt.Printf("%-22s %8d %12.3f %12.3f\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
	}
}

// dump writes the environment, the per-name summary and every span to
// path as JSON.
func (t *tracer) dump(path string, env any) error {
	stats := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Env     any        `json:"env"`
		Summary []spanStat `json:"summary"`
		Spans   []span     `json:"spans"`
	}{env, stats, t.spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
