package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	rememberr "repro"
)

// span is one interval recorded by the benchmark's own wrappers around
// a call into one of the program's layers. Spans of one operation share
// Req; Parent is the ID of the span that caused this one (-1 for a
// root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It records only
// while on is set, so one process can measure the same phase untraced
// and traced and report the difference as the tracing overhead.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu      sync.Mutex // the handler middleware records from server goroutines
	spans   []span
	lastReq int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent and returns its ID; a root span
// (parent -1) starts a new request ID. It returns -1 when tracing is
// off or t is nil, and -1 is a valid argument to end and as a parent.
func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	return t.add(name, parent, time.Since(t.epoch).Nanoseconds(), 0)
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a finished span whose bounds were measured elsewhere.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	return t.add(name, parent, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds())
}

func (t *tracer) add(name string, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var req int64
	if parent >= 0 {
		req = t.spans[parent].Req
	} else {
		t.lastReq++
		req = t.lastReq
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: start, End: end})
	return id
}

// stageLayer names the build stages of BuildReport.Trace after the
// package that runs them.
var stageLayer = map[string]string{
	"corpus":    "corpus.generate",
	"render":    "specdoc.render",
	"parse":     "specdoc.parse",
	"dedup":     "dedup.dedup",
	"annotate":  "annotate",
	"classify":  "classify.classify",
	"protocol":  "annotate.protocol",
	"propagate": "annotate.propagate",
	"timeline":  "timeline.timeline",
	"validate":  "validate",
}

// recordStages copies the children of a build's stage tree under the
// span parent. The program reports stage durations but not start
// times; its stages run one after another, so each child is laid out
// from the end of its previous sibling, starting at start.
func (t *tracer) recordStages(parent int, st *rememberr.TraceSpan, start time.Time) {
	for _, c := range st.Children {
		name := stageLayer[c.Name]
		if name == "" {
			name = c.Name
		}
		end := start.Add(c.Duration())
		id := t.record(name, parent, start, end)
		t.recordStages(id, c, start)
		start = end
	}
}

// durations returns the duration in ms of every recorded span named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// transportMS returns, for every handler span under a client GET, the
// client span's duration minus the handler's: the time spent in the
// socket, the HTTP framing and the client.
func (t *tracer) transportMS() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name != "serve.handler" || s.Parent < 0 {
			continue
		}
		p := t.spans[s.Parent]
		if p.Name == "client.get" || p.Name == "client.first_get" {
			out = append(out, ms((p.End-p.Start)-(s.End-s.Start)))
		}
	}
	return out
}

// layerTime is one span name's totals over a run.
type layerTime struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	SelfMS float64 `json:"self_mean_ms"`
}

// selfTimes returns, per span name, the mean duration and the mean
// self time: the span's duration minus the part of its interval that
// its children cover.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.MeanMS += ms(dur)
		lt.SelfMS += ms(dur - covered(s, kids[s.ID]))
	}
	for _, lt := range out {
		lt.MeanMS /= float64(lt.Count)
		lt.SelfMS /= float64(lt.Count)
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, cur int64
	cur = p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// maxWrittenSpans caps the spans written out; a traced query run
// records several hundred thousand, and the per-layer figures in the
// same file are computed from all of them.
const maxWrittenSpans = 50000

// write saves the per-layer self times, the per-layer metrics and the
// first maxWrittenSpans spans of a traced run as JSON.
func (t *tracer) write(path string, doc map[string]any) error {
	doc["layers"] = t.selfTimes()
	t.mu.Lock()
	doc["spans_recorded"] = len(t.spans)
	doc["spans"] = t.spans[:min(len(t.spans), maxWrittenSpans)]
	raw, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// readHandlerMS returns the durations of the handler spans of GETs.
func (t *tracer) readHandlerMS() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == "serve.handler" && s.Parent >= 0 {
			if p := t.spans[s.Parent].Name; p == "client.get" || p == "client.first_get" {
				out = append(out, ms(s.End-s.Start))
			}
		}
	}
	return out
}
