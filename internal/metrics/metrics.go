// Package metrics is the runtime's live measurement layer: a
// zero-dependency registry of atomic counters, gauges, and fixed-bucket
// histograms, keyed by node/connection labels.
//
// The paper's whole premise is that the runtime measures itself — the
// current-STP per iteration, the summary-STP piggybacked on every
// put/get — so the operational window into a running pipeline must cost
// nothing on the paths it observes. Two invariants shape the design:
//
//   - Off is free. Every instrument handle is nil-safe: a nil *Counter,
//     *Gauge, or *Histogram no-ops after a single branch, so code holds
//     handles unconditionally and a runtime without a Registry pays one
//     predictable branch per event — no allocation, no atomic, no map
//     lookup (the existing hot-path allocation pins hold untouched).
//
//   - On is O(1) atomics. Handles are resolved once, at registration
//     time (Start/materialize — the cold path, where the map lookups
//     and label allocations live). An enabled event is then a fixed
//     number of uncontended atomic operations: one add for a counter,
//     one store (or CAS-max) for a gauge, two adds for a histogram
//     observation. Nothing on the event path allocates or locks.
//
// Export is pull-based: Gather runs the OnGather hooks (which compute
// gauges on demand) and snapshots every family, WriteProm renders
// the Prometheus text exposition format, and Snapshot builds the
// JSON-marshalable form. Both derive from the same atomic reads, so a
// scrape, a JSON poll, and a status dump can never disagree about a
// counter's value beyond the instant they were taken.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's type.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that goes up and down (or tracks a maximum).
	KindGauge
	// KindHistogram is a fixed-bucket distribution of observations.
	KindHistogram
)

// String returns the Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// unknownGauge is the sentinel a Gauge stores for "no value" (an
// Unknown STP, say); it renders as NaN.
const unknownGauge = math.MinInt64

// Counter is a monotonically increasing atomic counter. The zero value
// is usable but normally counters are created through a Registry. All
// methods are nil-safe: a nil *Counter no-ops, so disabled metrics cost
// one branch.
type Counter struct {
	v     atomic.Int64
	scale float64 // multiplier applied at render (1, or 1e-9 for ns→s)
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// AddDuration adds a duration to a time counter (stored in nanoseconds,
// rendered in seconds when the family was created via DurationCounter).
func (c *Counter) AddDuration(d time.Duration) { c.Add(int64(d)) }

// Value returns the raw count (nanoseconds for duration counters). A
// nil counter reads 0.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. Like Counter, every method is
// nil-safe.
type Gauge struct {
	v     atomic.Int64
	scale float64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetDuration stores a duration value (rendered in seconds for gauges
// created via DurationGauge).
func (g *Gauge) SetDuration(d time.Duration) { g.Set(int64(d)) }

// SetUnknown stores the "no value" sentinel, rendered as NaN.
func (g *Gauge) SetUnknown() {
	if g != nil {
		g.v.Store(unknownGauge)
	}
}

// SetBool stores 1 for true, 0 for false.
func (g *Gauge) SetBool(b bool) {
	if b {
		g.Set(1)
	} else {
		g.Set(0)
	}
}

// Max raises the gauge to v if v exceeds the stored value — the
// high-water primitive. One load plus (rarely) one CAS per call.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if cur != unknownGauge && v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the raw stored value (0 for nil, the sentinel for
// unknown).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Known reports whether the gauge holds a real value (not the unknown
// sentinel).
func (g *Gauge) Known() bool {
	return g != nil && g.v.Load() != unknownGauge
}

// DurationBuckets is the default histogram layout for wait-time
// distributions: decade bounds from 1µs to 10s. Nine fixed buckets keep
// an Observe at a bounded scan plus two atomic adds.
var DurationBuckets = []time.Duration{
	time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// Histogram is a fixed-bucket distribution of duration observations.
// Buckets are immutable after creation; Observe is a bounded linear
// scan (≤ len(bounds) compares) plus two atomic adds — no allocation,
// no lock. Nil-safe like the other instruments.
type Histogram struct {
	bounds []time.Duration // upper bounds, ascending
	counts []atomic.Int64  // per-bucket (non-cumulative); len(bounds)+1 with overflow
	sum    atomic.Int64    // total observed nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := 0
	for ; i < len(h.bounds); i++ {
		if d <= h.bounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the total number of observations. Nil reads 0.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total observed time. Nil reads 0.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Labels identifies one series within a family. Registration copies it;
// callers may reuse the map.
type Labels map[string]string

// series is one labeled instrument inside a family.
type series struct {
	labels Labels
	key    string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric with a set of labeled series.
type family struct {
	name    string
	help    string
	kind    Kind
	scale   float64
	bounds  []time.Duration
	mu      sync.Mutex
	series  map[string]*series
	ordered []*series
}

// Registry holds metric families. Registration (the *Counter/*Gauge/
// *Histogram constructors) locks and may allocate — it belongs to the
// cold path (Start, materialize, attach). The returned handles are the
// hot-path interface. A nil *Registry returns nil handles from every
// constructor, so "metrics off" composes transparently.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	ordered  []*family
	onGather []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey serializes labels deterministically.
func labelKey(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(ls[k])
	}
	return b.String()
}

// getFamily returns (creating if needed) the family, enforcing kind
// consistency: re-registering a name with a different kind panics — it
// is a programming error that would silently corrupt the exposition.
func (r *Registry) getFamily(name, help string, kind Kind, scale float64, bounds []time.Duration) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, scale: scale, bounds: bounds, series: make(map[string]*series)}
		r.families[name] = f
		r.ordered = append(r.ordered, f)
		sort.Slice(r.ordered, func(i, j int) bool { return r.ordered[i].name < r.ordered[j].name })
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: family %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// getSeries returns (creating if needed) the labeled series of f.
func (f *family) getSeries(ls Labels) *series {
	key := labelKey(ls)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		copied := make(Labels, len(ls))
		for k, v := range ls {
			copied[k] = v
		}
		s = &series{labels: copied, key: key}
		switch f.kind {
		case KindCounter:
			s.c = &Counter{scale: f.scale}
		case KindGauge:
			s.g = &Gauge{scale: f.scale}
		case KindHistogram:
			s.h = &Histogram{bounds: f.bounds}
			s.h.counts = make([]atomic.Int64, len(f.bounds)+1)
		}
		f.series[key] = s
		f.ordered = append(f.ordered, s)
		sort.Slice(f.ordered, func(i, j int) bool { return f.ordered[i].key < f.ordered[j].key })
	}
	return s
}

// Counter returns the counter series of family name with the given
// labels, creating both as needed. A nil registry returns nil.
func (r *Registry) Counter(name, help string, ls Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.getFamily(name, help, KindCounter, 1, nil).getSeries(ls).c
}

// DurationCounter returns a counter that accumulates nanoseconds and
// renders seconds (Prometheus base-unit convention).
func (r *Registry) DurationCounter(name, help string, ls Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.getFamily(name, help, KindCounter, 1e-9, nil).getSeries(ls).c
}

// Gauge returns the gauge series of family name with the given labels.
func (r *Registry) Gauge(name, help string, ls Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.getFamily(name, help, KindGauge, 1, nil).getSeries(ls).g
}

// DurationGauge returns a gauge storing nanoseconds and rendering
// seconds. STP and heartbeat-age gauges use it.
func (r *Registry) DurationGauge(name, help string, ls Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.getFamily(name, help, KindGauge, 1e-9, nil).getSeries(ls).g
}

// Histogram returns the histogram series of family name with the given
// labels and bucket upper bounds (nil means DurationBuckets). Bounds
// are fixed by the first registration of the family.
func (r *Registry) Histogram(name, help string, bounds []time.Duration, ls Labels) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	return r.getFamily(name, help, KindHistogram, 1e-9, bounds).getSeries(ls).h
}

// Float is a float64 that survives JSON encoding when non-finite:
// NaN and ±Inf (which encoding/json rejects) marshal as the strings
// "NaN", "+Inf", "-Inf" — the same spellings the text exposition uses —
// and unmarshal back from either form.
type Float float64

// MarshalJSON renders finite values as numbers and non-finite ones as
// their exposition-format strings.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return json.Marshal(formatValue(v))
	}
	return json.Marshal(v)
}

// UnmarshalJSON accepts both the numeric and the string form.
func (f *Float) UnmarshalJSON(b []byte) error {
	var v float64
	if err := json.Unmarshal(b, &v); err == nil {
		*f = Float(v)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "NaN":
		*f = Float(math.NaN())
	case "+Inf":
		*f = Float(math.Inf(1))
	case "-Inf":
		*f = Float(math.Inf(-1))
	default:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		*f = Float(v)
	}
	return nil
}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// LE is the bucket's inclusive upper bound in seconds
	// (math.Inf(1) for the overflow bucket).
	LE Float `json:"le"`
	// Count is the cumulative observation count at or below LE.
	Count int64 `json:"count"`
}

// SeriesSnapshot is one labeled series' state at Gather time.
type SeriesSnapshot struct {
	// Labels identifies the series.
	Labels Labels `json:"labels,omitempty"`
	// Value is the scaled scalar for counters and gauges (NaN for an
	// unknown gauge; omitted for histograms).
	Value Float `json:"value"`
	// Buckets, Sum, and Count describe a histogram series.
	Buckets []BucketCount `json:"buckets,omitempty"`
	// Sum is the histogram's total observed value in seconds.
	Sum Float `json:"sum,omitempty"`
	// Count is the histogram's total observation count.
	Count int64 `json:"count,omitempty"`
}

// FamilySnapshot is one family's state at Gather time.
type FamilySnapshot struct {
	// Name is the family name (Prometheus metric name).
	Name string `json:"name"`
	// Help is the family's help string.
	Help string `json:"help"`
	// Kind is "counter", "gauge", or "histogram".
	Kind string `json:"kind"`
	// Series lists the labeled series, label-sorted.
	Series []SeriesSnapshot `json:"series"`
}

// scaled converts a raw int64 to the family's rendered float.
func scaled(v int64, scale float64) float64 {
	if scale == 0 || scale == 1 {
		return float64(v)
	}
	return float64(v) * scale
}

// OnGather registers f to run at the start of every Gather, before any
// series is read, so values that are cheaper to compute than to keep
// current (occupancy, heartbeat age) are computed when they are read.
// Hooks run in registration order, without the registry's lock held.
func (r *Registry) OnGather(f func()) {
	r.mu.Lock()
	r.onGather = append(r.onGather, f)
	r.mu.Unlock()
}

// Gather runs the OnGather hooks, then snapshots every family,
// name-sorted, series label-sorted. A nil registry gathers nothing.
func (r *Registry) Gather() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := r.onGather
	r.mu.Unlock()
	for _, f := range hooks {
		f()
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.ordered...)
	r.mu.Unlock()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		ser := append([]*series(nil), f.ordered...)
		f.mu.Unlock()
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String(), Series: make([]SeriesSnapshot, 0, len(ser))}
		for _, s := range ser {
			ss := SeriesSnapshot{Labels: s.labels}
			switch f.kind {
			case KindCounter:
				ss.Value = Float(scaled(s.c.Value(), f.scale))
			case KindGauge:
				raw := s.g.Value()
				if !s.g.Known() {
					ss.Value = Float(math.NaN())
				} else {
					ss.Value = Float(scaled(raw, f.scale))
				}
			case KindHistogram:
				var cum int64
				for i := range s.h.counts {
					cum += s.h.counts[i].Load()
					le := math.Inf(1)
					if i < len(f.bounds) {
						le = f.bounds[i].Seconds()
					}
					ss.Buckets = append(ss.Buckets, BucketCount{LE: Float(le), Count: cum})
				}
				ss.Sum = Float(time.Duration(s.h.sum.Load()).Seconds())
				ss.Count = cum
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double-quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a float in exposition format.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {k="v",...}, with an optional extra le pair for
// histogram buckets.
func writeLabels(b *strings.Builder, ls Labels, le string) {
	if len(ls) == 0 && le == "" {
		return
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteByte('{')
	first := true
	for _, k := range keys {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(ls[k]))
		b.WriteByte('"')
	}
	if le != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// WriteProm renders the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP and TYPE line per family, then its
// series; histograms expand to _bucket/_sum/_count. A nil registry
// writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.Gather() {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.Series {
			if f.Kind == "histogram" {
				for _, bk := range s.Buckets {
					b.WriteString(f.Name)
					b.WriteString("_bucket")
					writeLabels(&b, s.Labels, formatValue(float64(bk.LE)))
					b.WriteByte(' ')
					b.WriteString(strconv.FormatInt(bk.Count, 10))
					b.WriteByte('\n')
				}
				b.WriteString(f.Name)
				b.WriteString("_sum")
				writeLabels(&b, s.Labels, "")
				b.WriteByte(' ')
				b.WriteString(formatValue(float64(s.Sum)))
				b.WriteByte('\n')
				b.WriteString(f.Name)
				b.WriteString("_count")
				writeLabels(&b, s.Labels, "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(s.Count, 10))
				b.WriteByte('\n')
				continue
			}
			b.WriteString(f.Name)
			writeLabels(&b, s.Labels, "")
			b.WriteByte(' ')
			b.WriteString(formatValue(float64(s.Value)))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders the Gather snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	snap := r.Gather()
	if snap == nil {
		snap = []FamilySnapshot{}
	}
	return enc.Encode(snap)
}
