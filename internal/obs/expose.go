package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WriteTo writes every registered metric in the Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE line per
// family, then one line per series, families in registration order
// and series sorted by label signature so output is deterministic.
// A nil Registry writes nothing.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	// Snapshot each family's collector and sorted series, then release:
	// registration inserts into the series maps while a scrape formats,
	// GaugeFunc collectors may take their own locks (the coordinator's
	// scrape takes c.mu) and concurrent registration must not deadlock
	// against a scrape.
	views := make([]familyView, 0, len(r.order))
	for _, name := range r.order {
		views = append(views, r.families[name].view())
	}
	r.mu.Unlock()

	cw := &countWriter{w: w}
	for _, v := range views {
		if err := v.write(cw); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// Handler returns an http.Handler serving the exposition at any path
// (mount it at GET /metrics). A nil Registry serves an empty body.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		r.WriteTo(w)
	})
}

type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// familyView is what a scrape formats of one family, taken under the
// registry's lock: the family, whose name, help, kind and buckets never
// change once registered, its collector, and its series sorted by label
// signature. The metrics' values are read atomically while formatting.
type familyView struct {
	f      *family
	fn     func() []Sample
	sigs   []string
	series []any
}

// view snapshots f; the caller holds the registry's lock.
func (f *family) view() familyView {
	v := familyView{f: f, fn: f.fn, sigs: make([]string, 0, len(f.series))}
	for sig := range f.series {
		v.sigs = append(v.sigs, sig)
	}
	sort.Strings(v.sigs)
	v.series = make([]any, len(v.sigs))
	for i, sig := range v.sigs {
		v.series[i] = f.series[sig]
	}
	return v
}

func (v familyView) write(w io.Writer) error {
	f := v.f
	var b strings.Builder
	if f.help != "" {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteByte('\n')
	}
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.kind.String())
	b.WriteByte('\n')

	if f.kind == kindGaugeFunc {
		for _, s := range v.fn() {
			writeSeries(&b, f.name, labelString(s.Labels), s.Value)
		}
		_, err := io.WriteString(w, b.String())
		return err
	}

	for i, sig := range v.sigs {
		switch m := v.series[i].(type) {
		case *Counter:
			writeSeries(&b, f.name, sig, float64(m.Value()))
		case *Gauge:
			writeSeries(&b, f.name, sig, m.Value())
		case *Histogram:
			var cum int64
			for i, ub := range m.upper {
				cum += m.buckets[i].Load()
				writeSeries(&b, f.name+"_bucket", addLabel(sig, "le", formatFloat(ub)), float64(cum))
			}
			cum += m.buckets[len(m.upper)].Load()
			writeSeries(&b, f.name+"_bucket", addLabel(sig, "le", "+Inf"), float64(cum))
			writeSeries(&b, f.name+"_sum", sig, m.Sum())
			writeSeries(&b, f.name+"_count", sig, float64(m.Count()))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeries renders one `name{labels} value` line.
func writeSeries(b *strings.Builder, name, sig string, v float64) {
	b.WriteString(name)
	if sig != "" {
		b.WriteByte('{')
		b.WriteString(sig)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// labelString renders collect-time labels in sorted order, validating
// names (GaugeFunc labels are only seen at scrape).
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if !labelOK(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q in GaugeFunc sample", l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

// addLabel appends one more pair to a rendered signature (used for
// the histogram le label, which sorts into place naturally because
// exposition does not require sorted label order within a line).
func addLabel(sig, name, value string) string {
	pair := name + "=" + strconv.Quote(value)
	if sig == "" {
		return pair
	}
	return sig + "," + pair
}

// formatFloat renders a value the way Prometheus expects: integers
// without a decimal point, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
