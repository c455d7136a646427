package obs

import (
	"fmt"
	"io"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), so a standard Prometheus server can
// scrape the daemon without any client library:
//
//   - counters and gauges render as single samples,
//   - histograms render with full cumulative bucket exposition
//     (name_bucket{le="..."} from Histogram.Buckets, plus name_sum and
//     name_count), preserving the power-of-two bounds exactly,
//   - metric names are sanitized to the Prometheus charset (every character
//     outside [a-zA-Z0-9_:] becomes '_', so "server.latency_ns" scrapes as
//     "server_latency_ns"); the HELP line carries the original name.
//
// Units are not converted: *_ns histograms stay in nanoseconds (converting
// the integer power-of-two bounds to seconds would misstate them). Metrics
// appear in sorted name order, each preceded by its HELP and TYPE lines. A
// nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, name := range sortedKeys(counters) {
		writeHeader(&b, name, "counter")
		fmt.Fprintf(&b, "%s %d\n", promName(name), counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		writeHeader(&b, name, "gauge")
		fmt.Fprintf(&b, "%s %d\n", promName(name), gauges[name].Value())
	}
	for _, name := range sortedKeys(hists) {
		writeHeader(&b, name, "histogram")
		writeHistogram(&b, name, hists[name])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHeader emits the HELP and TYPE comment lines for one metric.
func writeHeader(b *strings.Builder, name, kind string) {
	fmt.Fprintf(b, "# HELP %s samplewh %s %s\n", promName(name), kind, name)
	fmt.Fprintf(b, "# TYPE %s %s\n", promName(name), kind)
}

// writeHistogram emits the cumulative bucket series plus _sum and _count.
// Empty buckets between populated ones are skipped (cumulative counts make
// them redundant); the +Inf bucket is always present and, per convention,
// equals the _count sample (both computed from the same bucket snapshot, so
// they agree even under concurrent updates).
func writeHistogram(b *strings.Builder, name string, h *Histogram) {
	pname := promName(name)
	buckets := h.Buckets()
	var cum, sum int64
	for _, bk := range buckets {
		if bk.Count == 0 {
			continue
		}
		cum += bk.Count
		fmt.Fprintf(b, "%s_bucket{le=\"%d\"} %d\n", pname, bk.Bound, cum)
	}
	sum = h.sum.Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", pname, cum)
	fmt.Fprintf(b, "%s_sum %d\n", pname, sum)
	fmt.Fprintf(b, "%s_count %d\n", pname, cum)
}

// promName maps a registry metric name onto the Prometheus metric-name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}
