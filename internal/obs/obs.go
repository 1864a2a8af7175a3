// Package obs is the dependency-free observability layer shared by the
// build pipeline and the serving layer: a registry of named counters,
// gauges and fixed-bucket histograms, plus lightweight build-stage
// spans (span.go).
//
// Design constraints, in order:
//
//   - Lock-free hot path. Instruments are resolved from the registry
//     once, at wiring time; every subsequent Inc/Add/Observe is one or
//     two atomic operations on a leaf value. The registry mutex guards
//     registration only, never recording.
//   - Nil is off. Every instrument method is a no-op on a nil receiver,
//     and a nil *Registry hands out nil instruments, so instrumented
//     code paths carry a single predictable branch when observability
//     is disabled instead of an interface call or a feature flag.
//   - Snapshot-consistent reads. Value() and Snapshot() see a state
//     that some serialization of the concurrent updates passed through;
//     histogram snapshots double-read the observation count and retry
//     so that a quiesced histogram always reports exact totals.
//   - Stable exposition. WritePrometheus emits families sorted by
//     metric name and series sorted by label signature, so the output
//     for a fixed set of values is byte-stable (goldens can pin it).
//
// The registry intentionally implements the subset of the Prometheus
// data model the project needs (counter, gauge, histogram; constant
// label sets fixed at registration) rather than depending on
// client_golang.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to an instrument at
// registration time.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing integer. The zero value is
// ready to use; a nil counter discards all updates.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by n (n must be >= 0; negative deltas are
// discarded to preserve monotonicity).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down. The zero value is ready
// to use; a nil gauge discards all updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by d (negative to decrease).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency/size histogram. Buckets are
// defined by their inclusive upper bounds (Prometheus "le" semantics);
// an implicit +Inf bucket catches the overflow. A nil histogram
// discards all observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64   // incremented last in Observe
}

// LatencyBuckets is the default request-latency bucket layout in
// seconds: the classic Prometheus DefBuckets extended downward with
// sub-millisecond buckets (100 µs to 2.5 ms). Indexed point lookups
// and fragment-stitched responses complete in tens of microseconds,
// so a layout bottoming out at 5 ms reported the same p50 for every
// serving configuration; the sub-ms decades make those differences
// measurable without changing the upper decades existing dashboards
// key on.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025,
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bounds; the +Inf bucket is
	// implicit.
	Bounds []float64
	// Counts are the per-bucket (non-cumulative) observation counts;
	// len(Bounds)+1 entries, the last being the +Inf bucket.
	Counts []uint64
	// Count is the total number of observations.
	Count uint64
	// Sum is the sum of all observed values.
	Sum float64
}

// Snapshot reads a consistent view: the total count is read before and
// after the buckets, and the read retries while a concurrent Observe
// lands in between. On a quiesced histogram the snapshot is exact; under
// sustained concurrent writes the final attempt is returned as a
// best-effort view (bucket counts may lead the total by in-flight
// observations).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{Bounds: h.bounds, Counts: make([]uint64, len(h.counts))}
	for attempt := 0; ; attempt++ {
		before := h.count.Load()
		for i := range h.counts {
			snap.Counts[i] = h.counts[i].Load()
		}
		snap.Sum = math.Float64frombits(h.sum.Load())
		after := h.count.Load()
		if before == after || attempt >= 3 {
			snap.Count = after
			return snap
		}
	}
}

// metricKind discriminates the instrument types of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one labeled instrument inside a family. Exactly one of the
// value fields is set, matching the family kind (gaugeFn, when set,
// takes precedence over the gauge value and is sampled at write time).
type series struct {
	labels  []Label // sorted by name
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series // by label signature
}

// Registry is a set of named instruments. Registration (the Counter /
// Gauge / Histogram methods) is mutex-guarded and idempotent: asking
// for an existing name+label combination returns the existing
// instrument, so independent components can share one process-wide
// registry without coordination. Recording on the returned instruments
// is lock-free. A nil *Registry is valid and hands out nil (no-op)
// instruments.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName matches the Prometheus metric-name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName matches the Prometheus label-name grammar.
func validLabelName(s string) bool {
	return validName(s) && !strings.Contains(s, ":")
}

// signature canonicalizes a label set: sorted by name, joined. The
// input slice is sorted in place.
func signature(labels []Label) string {
	sort.Slice(labels, func(i, j int) bool { return labels[i].Name < labels[j].Name })
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('\xff')
		b.WriteString(l.Value)
		b.WriteByte('\xfe')
	}
	return b.String()
}

// register resolves or creates the series for (name, labels) with the
// given kind. Mismatched kinds for an existing name panic: that is a
// wiring bug, not a runtime condition.
func (r *Registry) register(name, help string, kind metricKind, labels []Label) *series {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validLabelName(l.Name) {
			panic("obs: invalid label name " + strconv.Quote(l.Name) + " on metric " + name)
		}
	}
	labels = append([]Label(nil), labels...)
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.kind, kind))
	}
	s := f.series[sig]
	if s == nil {
		s = &series{labels: labels}
		switch kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			// bounds are attached by the caller
		}
		f.series[sig] = s
	}
	return s
}

// Counter returns the counter registered under name with the given
// constant labels, creating it on first use. On a nil registry it
// returns nil (a valid no-op counter).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, labels).counter
}

// Gauge returns the gauge registered under name with the given constant
// labels, creating it on first use. On a nil registry it returns nil (a
// valid no-op gauge).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, labels).gauge
}

// GaugeFunc registers a gauge whose value is sampled by calling fn at
// exposition time — for values that already live elsewhere (cache
// entry counts, queue lengths). fn must be safe for concurrent calls.
// Re-registering the same name+labels replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	s.gaugeFn = fn
	r.mu.Unlock()
}

// Histogram returns the fixed-bucket histogram registered under name
// with the given constant labels, creating it on first use with the
// given inclusive upper bounds (which must be sorted ascending; an
// +Inf overflow bucket is implicit). On a nil registry it returns nil
// (a valid no-op histogram).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i-1] < bounds[i]) {
			panic("obs: histogram bounds not strictly ascending for " + name)
		}
	}
	s := r.register(name, help, kindHistogram, labels)
	r.mu.Lock()
	if s.hist == nil {
		s.hist = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	h := s.hist
	r.mu.Unlock()
	return h
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatFloat renders a float the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// labelString renders a label set (plus an optional extra label, used
// for histogram "le") as {a="1",b="2"}; empty sets render as "".
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Name + `="` + escapeLabelValue(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus writes every registered instrument in the Prometheus
// text exposition format (version 0.0.4). Families are sorted by
// metric name and series by label signature, so the output is stable
// for a fixed set of values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type flatSeries struct {
		sig string
		s   *series
	}
	fams := make([]*family, 0, len(names))
	flat := make(map[string][]flatSeries, len(names))
	for _, name := range names {
		f := r.families[name]
		fams = append(fams, f)
		rows := make([]flatSeries, 0, len(f.series))
		for sig, s := range f.series {
			rows = append(rows, flatSeries{sig, s})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].sig < rows[j].sig })
		flat[name] = rows
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, row := range flat[f.name] {
			s := row.s
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(s.labels), s.counter.Value())
			case kindGauge:
				v := s.gauge.Value()
				if s.gaugeFn != nil {
					v = s.gaugeFn()
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(s.labels), formatFloat(v))
			case kindHistogram:
				snap := s.hist.Snapshot()
				cum := uint64(0)
				for i, c := range snap.Counts {
					cum += c
					le := "+Inf"
					if i < len(snap.Bounds) {
						le = formatFloat(snap.Bounds[i])
					}
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(s.labels, L("le", le)), cum)
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(s.labels), formatFloat(snap.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(s.labels), snap.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
