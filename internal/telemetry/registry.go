package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricType is the exposition TYPE of one family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// sample is one rendered time series value.
type sample struct {
	labels []Label
	value  float64
	hist   *HistogramSnapshot // set for histogram families
}

// family groups the samples of one metric name.
type family struct {
	name string
	help string
	typ  metricType
	rows []sample
}

// Writer accumulates the samples of one scrape. Collectors emit into it;
// the registry renders the result. A Writer is single-goroutine; it is
// handed to collectors sequentially.
type Writer struct {
	families map[string]*family
	order    []string
}

func newWriter() *Writer {
	return &Writer{families: make(map[string]*family)}
}

func (w *Writer) family(name, help string, typ metricType) *family {
	f, ok := w.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		w.families[name] = f
		w.order = append(w.order, name)
	}
	return f
}

// Counter emits one counter sample. Several collectors may contribute
// samples (with distinct labels) to the same family; the first caller's
// help string wins.
func (w *Writer) Counter(name, help string, value float64, labels ...Label) {
	f := w.family(name, help, typeCounter)
	f.rows = append(f.rows, sample{labels: labels, value: value})
}

// Gauge emits one gauge sample.
func (w *Writer) Gauge(name, help string, value float64, labels ...Label) {
	f := w.family(name, help, typeGauge)
	f.rows = append(f.rows, sample{labels: labels, value: value})
}

// Histogram emits one histogram series (rendered as _bucket/_sum/_count).
func (w *Writer) Histogram(name, help string, snap HistogramSnapshot, labels ...Label) {
	f := w.family(name, help, typeHistogram)
	f.rows = append(f.rows, sample{labels: labels, hist: &snap})
}

// Registry is a set of collectors gathered on every scrape. The zero value
// is not usable; create one with NewRegistry. Safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector. Registering the same collector twice emits
// its samples twice; callers own dedup.
func (r *Registry) Register(c Collector) {
	if c == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Gather runs every collector and returns the accumulated exposition.
func (r *Registry) Gather() *Writer {
	r.mu.Lock()
	cs := make([]Collector, len(r.collectors))
	copy(cs, r.collectors)
	r.mu.Unlock()
	w := newWriter()
	for _, c := range cs {
		c.Collect(w)
	}
	return w
}

// WritePrometheus gathers all collectors and renders the Prometheus text
// exposition format (version 0.0.4) to out.
func (r *Registry) WritePrometheus(out io.Writer) error {
	return r.Gather().writeTo(out)
}

// writeTo renders the accumulated families, sorted by name, each sample's
// labels sorted by key.
func (w *Writer) writeTo(out io.Writer) error {
	names := append([]string(nil), w.order...)
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := w.families[name]
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.rows {
			if f.typ == typeHistogram {
				writeHistogramRows(&b, f.name, s.labels, *s.hist)
				continue
			}
			b.WriteString(f.name)
			writeLabels(&b, s.labels)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.value))
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(out, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogramRows renders one histogram sample: cumulative _bucket rows
// with the le label, then _sum and _count.
func writeHistogramRows(b *strings.Builder, name string, labels []Label, h HistogramSnapshot) {
	var cum uint64
	for i, upper := range h.Upper {
		cum += h.Counts[i]
		b.WriteString(name)
		b.WriteString("_bucket")
		writeLabels(b, append(append([]Label(nil), labels...), L("le", formatValue(upper))))
		fmt.Fprintf(b, " %d\n", cum)
	}
	cum += h.Overflow
	b.WriteString(name)
	b.WriteString("_bucket")
	writeLabels(b, append(append([]Label(nil), labels...), L("le", "+Inf")))
	fmt.Fprintf(b, " %d\n", cum)
	b.WriteString(name)
	b.WriteString("_sum")
	writeLabels(b, labels)
	fmt.Fprintf(b, " %s\n", formatValue(h.Sum))
	b.WriteString(name)
	b.WriteString("_count")
	writeLabels(b, labels)
	fmt.Fprintf(b, " %d\n", h.Count)
}

// writeLabels renders {k="v",...} with keys sorted; nothing for no labels.
func writeLabels(b *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	sorted := append([]Label(nil), labels...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatValue renders a float the way Prometheus clients do: integers
// without a decimal point, +Inf/-Inf/NaN by name.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
