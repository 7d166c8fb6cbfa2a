package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// promPrefix namespaces every exposed metric family.
const promPrefix = "parallax_"

// promName mangles a registry metric name into a legal Prometheus
// metric name: the namespace prefix plus the name with every character
// outside [a-zA-Z0-9_] replaced by '_'.
func promName(name string) string {
	var sb strings.Builder
	sb.Grow(len(promPrefix) + len(name))
	sb.WriteString(promPrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promFloat renders a sample value. strconv with 'g'/-1 is shortest
// round-trip formatting — a pure function of the bits — and spells the
// non-finite values exactly as the exposition format does ("NaN",
// "+Inf", "-Inf").
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promFamily is one metric family ready to emit: a TYPE header plus
// sample lines.
type promFamily struct {
	name  string
	typ   string
	lines []string
}

// WriteProm renders the registry and the series' deterministic channels
// as Prometheus text exposition format 0.0.4. It is the registry's one
// text format: /metrics, the -metrics file and a flight bundle's
// metrics.txt all write it. The output is sorted by family name and
// every value is either a commutative integer aggregate or a
// deterministically-computed simulation quantity, so the bytes are
// identical whatever the thread count — the property the CI health
// gate pins.
//
// Families:
//
//	counter  <name>            -> parallax_<name>_total (counter)
//	gauge    <name>            -> parallax_<name> (gauge)
//	hist     <name>            -> parallax_<name> (histogram: cumulative
//	                              _bucket{le=...}, _sum, _count)
//	series channel <name>      -> parallax_series_<name> (gauge, last
//	                              committed value)
//
// Series timing channels (wall clock) never appear here; they live in
// /series.json and flight bundles. Nil registry/series contribute
// nothing.
func WriteProm(w io.Writer, r *Registry, s *Series) error {
	var fams []promFamily

	if r != nil {
		r.mu.Lock()
		for i, n := range r.counterNames {
			fams = append(fams, promFamily{
				name: promName(n) + "_total",
				typ:  "counter",
				lines: []string{
					promName(n) + "_total " + strconv.FormatInt(atomic.LoadInt64(&r.counters[i]), 10),
				},
			})
		}
		for i, n := range r.gaugeNames {
			v := math.Float64frombits(atomic.LoadUint64(&r.gauges[i]))
			fams = append(fams, promFamily{
				name:  promName(n),
				typ:   "gauge",
				lines: []string{promName(n) + " " + promFloat(v)},
			})
		}
		for i, n := range r.histNames {
			h := &r.hists[i]
			pn := promName(n)
			fam := promFamily{name: pn, typ: "histogram"}
			cum := int64(0)
			for bi := range h.counts {
				cum += atomic.LoadInt64(&h.counts[bi])
				le := "+Inf"
				if bi < len(h.bounds) {
					le = strconv.FormatInt(h.bounds[bi], 10)
				}
				fam.lines = append(fam.lines,
					pn+`_bucket{le="`+le+`"} `+strconv.FormatInt(cum, 10))
			}
			fam.lines = append(fam.lines,
				pn+"_sum "+strconv.FormatInt(atomic.LoadInt64(&r.histSums[i]), 10),
				pn+"_count "+strconv.FormatInt(cum, 10))
			fams = append(fams, fam)
		}
		r.mu.Unlock()
	}

	if s != nil {
		s.mu.Lock()
		if s.head > 0 {
			last := (s.head - 1) & s.mask
			for ci, n := range s.names {
				if s.timing[ci] {
					continue
				}
				pn := promName("series/" + n)
				fams = append(fams, promFamily{
					name:  pn,
					typ:   "gauge",
					lines: []string{pn + " " + promFloat(s.rings[ci][last])},
				})
			}
		}
		s.mu.Unlock()
	}

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := bw.WriteString(line + "\n"); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ValidateExposition parses a Prometheus text-exposition document and
// returns the first structural error it finds: malformed metric names,
// unparseable sample values, TYPE lines for unknown types, histogram
// buckets that are not cumulative, or a histogram _count that
// disagrees with its +Inf bucket. It is deliberately a small subset of
// a real scrape parser — enough for CI to prove the /metrics endpoint
// emits what a scraper would accept.
func ValidateExposition(data []byte) error {
	type histCheck struct {
		lastCum   int64
		infBucket int64
		hasInf    bool
		count     int64
		hasCount  bool
	}
	hists := map[string]*histCheck{}
	declared := map[string]string{} // family -> type

	lines := strings.Split(string(data), "\n")
	for ln, line := range lines {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "HELP" {
				continue
			}
			if len(fields) != 4 || fields[1] != "TYPE" {
				return fmt.Errorf("line %d: malformed comment %q", ln+1, line)
			}
			name, typ := fields[2], fields[3]
			if !validPromName(name) {
				return fmt.Errorf("line %d: invalid metric name %q", ln+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown metric type %q", ln+1, typ)
			}
			if prev, dup := declared[name]; dup {
				return fmt.Errorf("line %d: family %s declared twice (%s, %s)", ln+1, name, prev, typ)
			}
			declared[name] = typ
			if typ == "histogram" {
				hists[name] = &histCheck{}
			}
			continue
		}

		// Sample line: name[{labels}] value [timestamp]
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if !validPromName(name) {
			return fmt.Errorf("line %d: invalid metric name %q", ln+1, name)
		}
		var le string
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				return fmt.Errorf("line %d: unterminated label set", ln+1)
			}
			labels := rest[1:end]
			rest = rest[end+1:]
			if strings.HasPrefix(labels, `le="`) && strings.HasSuffix(labels, `"`) {
				le = labels[len(`le="`) : len(labels)-1]
			}
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return fmt.Errorf("line %d: want value [timestamp], got %q", ln+1, rest)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return fmt.Errorf("line %d: bad sample value %q: %v", ln+1, fields[0], err)
		}

		// Histogram structure checks keyed off the declared family.
		if base, ok := strings.CutSuffix(name, "_bucket"); ok {
			if hc := hists[base]; hc != nil {
				if le == "" {
					return fmt.Errorf("line %d: histogram bucket without le label", ln+1)
				}
				cum := int64(v)
				if cum < hc.lastCum {
					return fmt.Errorf("line %d: non-cumulative bucket for %s: %d after %d", ln+1, base, cum, hc.lastCum)
				}
				hc.lastCum = cum
				if le == "+Inf" {
					hc.infBucket = cum
					hc.hasInf = true
				}
			}
		} else if base, ok := strings.CutSuffix(name, "_count"); ok {
			if hc := hists[base]; hc != nil {
				hc.count = int64(v)
				hc.hasCount = true
			}
		}
	}
	histNames := make([]string, 0, len(hists))
	for name := range hists {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		hc := hists[name]
		if !hc.hasInf {
			return fmt.Errorf("histogram %s: missing +Inf bucket", name)
		}
		if !hc.hasCount {
			return fmt.Errorf("histogram %s: missing _count", name)
		}
		if hc.infBucket != hc.count {
			return fmt.Errorf("histogram %s: +Inf bucket %d != _count %d", name, hc.infBucket, hc.count)
		}
	}
	return nil
}

// validPromName reports whether s is a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
