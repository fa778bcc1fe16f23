package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// PrometheusContentType is the content type of text exposition format
// 0.0.4, which WritePrometheus emits.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every counter in the registry as a counter
// sample in the Prometheus text exposition format, sorted by name.
// Counter names are mangled to Prometheus's [a-zA-Z0-9_:] alphabet (the
// registry's dotted names become underscored).
func WritePrometheus(w io.Writer, r *Registry) {
	counters := r.Snapshot()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, counters[name])
	}
}

// promName mangles a registry name into the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], prefixing a digit-initial name with '_'.
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}
