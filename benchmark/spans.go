package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"urcgc/internal/mid"
)

// epoch anchors every harness timestamp: payload submit times, window
// bounds and span edges are nanoseconds since process start on the
// monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// span is one traced interval at a layer boundary. The live pass's spans
// of one message share its MID as ID (the drill's calls carry none); Parent
// indexes the enclosing span in the same file, -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanAgg totals one span name. Self is duration minus the part child
// spans cover.
type spanAgg struct {
	Count  int64 `json:"count"`
	Total  int64 `json:"total_ns"`
	SelfNs int64 `json:"self_ns"`
}

// spanLog keeps spans in memory until the run ends. Aggregates cover every
// span; only the first max are retained verbatim, so a long run's file
// stays readable. Not safe for concurrent use: the live pass guards it with
// its own mutex, the single-threaded drill uses it bare.
type spanLog struct {
	spans   []span
	max     int
	dropped int64
	agg     map[string]*spanAgg
	stack   []openSpan
}

type openSpan struct {
	name     string
	start    int64
	children int64 // nanoseconds covered by already-closed children
	index    int   // slot in spans, -1 when past max
}

func newSpanLog(max int) *spanLog {
	return &spanLog{spans: make([]span, 0, max), max: max, agg: make(map[string]*spanAgg)}
}

func (l *spanLog) charge(name string, dur, self int64) {
	a := l.agg[name]
	if a == nil {
		a = &spanAgg{}
		l.agg[name] = a
	}
	a.Count++
	a.Total += dur
	a.SelfNs += self
}

// add records one already-finished span of message id and returns its
// index (-1 when past max).
func (l *spanLog) add(name string, id mid.MID, start, end int64, parent int, self int64) int {
	l.charge(name, end-start, self)
	if len(l.spans) >= l.max {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{Name: name, ID: id.String(), Start: start, End: end, Parent: parent})
	return len(l.spans) - 1
}

// begin opens a nested span; the innermost open span is its parent.
func (l *spanLog) begin(name string) {
	o := openSpan{name: name, index: -1}
	if len(l.spans) < l.max {
		parent := -1
		if k := len(l.stack); k > 0 {
			parent = l.stack[k-1].index
		}
		o.index = len(l.spans)
		l.spans = append(l.spans, span{Name: name, Parent: parent})
	} else {
		l.dropped++
	}
	l.stack = append(l.stack, o)
	l.stack[len(l.stack)-1].start = nowNs()
}

// end closes the innermost open span and returns its duration.
func (l *spanLog) end() int64 {
	end := nowNs()
	k := len(l.stack) - 1
	o := l.stack[k]
	l.stack = l.stack[:k]
	dur := end - o.start
	if k > 0 {
		l.stack[k-1].children += dur
	}
	if o.index >= 0 {
		l.spans[o.index].Start, l.spans[o.index].End = o.start, end
	}
	l.charge(o.name, dur, dur-o.children)
	return dur
}

// meanSelf returns the mean self time of a span name in nanoseconds.
func (l *spanLog) meanSelf(name string) float64 {
	a := l.agg[name]
	if a == nil || a.Count == 0 {
		return 0
	}
	return float64(a.SelfNs) / float64(a.Count)
}

// merge appends another log's spans behind this one's, rebasing parent
// indexes, and adds its aggregates.
func (l *spanLog) merge(o *spanLog) {
	base := len(l.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
	l.dropped += o.dropped
	for name, a := range o.agg {
		if mine := l.agg[name]; mine != nil {
			mine.Count, mine.Total, mine.SelfNs = mine.Count+a.Count, mine.Total+a.Total, mine.SelfNs+a.SelfNs
			continue
		}
		l.agg[name] = a
	}
}

type spanFile struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Dropped  int64               `json:"spans_not_retained"`
	ByName   map[string]*spanAgg `json:"by_name"`
	Spans    []span              `json:"spans"`
}

// write stores the log as <dir>/trace-<workload>.json.
func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Dropped: l.dropped, ByName: l.agg, Spans: l.spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
