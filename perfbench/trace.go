package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanRec is one recorded call into a layer's public function.
type spanRec struct {
	Name   string
	Lane   int // 0 = benchmark goroutine, 1.. = request clients
	Parent int // index of the enclosing span, -1 at top level
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing and costs one nil check per call, so the untraced
// run executes exactly the same calls.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, lane, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{Name: name, Lane: lane, Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// do wraps one call in a span on the benchmark lane.
func (t *tracer) do(name string, parent int, f func()) {
	i := t.begin(name, 0, parent)
	f()
	t.end(i)
}

// children returns the spans directly under parent.
func (t *tracer) children(parent int) []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []spanRec
	for _, s := range t.spans {
		if s.Parent == parent && parent >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (open in
// Perfetto): one thread lane per benchmark goroutine.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Ts   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
		Pid  int    `json:"pid"`
		Tid  int    `json:"tid"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{Name: s.Name, Ph: "X", Ts: s.Start.Microseconds(),
			Dur: (s.End - s.Start).Microseconds(), Pid: 1, Tid: s.Lane})
	}
	t.mu.Unlock()
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// layerTable renders the per-layer aggregate of all recorded spans: count,
// total and median duration, and self time (duration minus the part its
// child spans cover).
func (t *tracer) layerTable() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	type agg struct {
		n          int
		total      time.Duration
		self       time.Duration
		durs       samples
		firstStart time.Duration
	}
	childTime := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*agg{}
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{firstStart: s.Start}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.n++
		a.total += d
		a.self += d - childTime[i]
		a.durs.addDur(d, time.Millisecond)
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].firstStart < by[names[j]].firstStart })
	var b strings.Builder
	b.WriteString("| span | count | total s | self s | median ms |\n|---|---:|---:|---:|---:|\n")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(&b, "| %s | %d | %.3f | %.3f | %.3f |\n", n, a.n, a.total.Seconds(), a.self.Seconds(), a.durs.median())
	}
	return b.String()
}
