package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line.
type Sample struct {
	Name   string // full sample name, including _bucket/_sum/_count suffixes
	Labels Labels
	Value  float64
}

// Family is one parsed metric family.
type Family struct {
	Name    string
	Help    string
	Type    string // counter | gauge | histogram | untyped
	Samples []Sample
}

// ParsePrometheus reads text exposition format strictly: every sample
// must belong to a family declared by a preceding # TYPE line, histogram
// samples must use the _bucket/_sum/_count suffixes, and each
// histogram's buckets must be cumulative non-decreasing with the +Inf
// bucket equal to _count. It exists so tests can round-trip
// WritePrometheus output and so CI can assert on live /metrics scrapes.
func ParsePrometheus(r io.Reader) ([]Family, error) {
	byName := map[string]*Family{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue // free-form comment
			}
			switch fields[1] {
			case "HELP":
				name := fields[2]
				f := byName[name]
				if f == nil {
					f = &Family{Name: name, Type: "untyped"}
					byName[name] = f
					order = append(order, name)
				}
				if len(fields) == 4 {
					f.Help = fields[3]
				}
			case "TYPE":
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE line", lineNo)
				}
				name, typ := fields[2], fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				f := byName[name]
				if f == nil {
					f = &Family{Name: name, Type: typ}
					byName[name] = f
					order = append(order, name)
				} else if f.Type != "untyped" {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				} else {
					f.Type = typ
				}
				if len(f.Samples) > 0 {
					return nil, fmt.Errorf("line %d: TYPE for %q after its samples", lineNo, name)
				}
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		f := byName[familyOf(s.Name, byName)]
		if f == nil {
			return nil, fmt.Errorf("line %d: sample %q has no preceding TYPE declaration", lineNo, s.Name)
		}
		if f.Type == "histogram" {
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(
				s.Name, "_bucket"), "_sum"), "_count")
			if base == s.Name || base != f.Name {
				return nil, fmt.Errorf("line %d: histogram sample %q lacks _bucket/_sum/_count suffix", lineNo, s.Name)
			}
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	fams := make([]Family, 0, len(order))
	for _, name := range order {
		f := byName[name]
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
		fams = append(fams, *f)
	}
	return fams, nil
}

// familyOf maps a sample name to its declaring family: exact match
// first, then the histogram-suffix-stripped base if that family is a
// histogram.
func familyOf(name string, byName map[string]*Family) string {
	if f := byName[name]; f != nil && f.Type != "histogram" {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if f := byName[base]; f != nil && f.Type == "histogram" {
				return base
			}
		}
	}
	return name
}

// checkHistogram validates cumulative bucket monotonicity per label set
// and that the +Inf bucket equals _count.
func checkHistogram(f *Family) error {
	type agg struct {
		lastLe  float64
		lastCum float64
		infSeen bool
		inf     float64
		count   float64
		hasCnt  bool
	}
	groups := map[string]*agg{}
	get := func(ls Labels) *agg {
		key := labelKey(stripLe(ls))
		g := groups[key]
		if g == nil {
			g = &agg{lastLe: math.Inf(-1), lastCum: -1}
			groups[key] = g
		}
		return g
	}
	for _, s := range f.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("%s: bucket sample without le label", f.Name)
			}
			g := get(s.Labels)
			lev, err := parseLe(le)
			if err != nil {
				return fmt.Errorf("%s: %w", f.Name, err)
			}
			if lev <= g.lastLe {
				return fmt.Errorf("%s: bucket edges not ascending", f.Name)
			}
			if s.Value < g.lastCum {
				return fmt.Errorf("%s: cumulative bucket counts decreasing", f.Name)
			}
			g.lastLe, g.lastCum = lev, s.Value
			if math.IsInf(lev, 1) {
				g.infSeen, g.inf = true, s.Value
			}
		case strings.HasSuffix(s.Name, "_count"):
			g := get(s.Labels)
			g.count, g.hasCnt = s.Value, true
		}
	}
	for _, g := range groups {
		if !g.infSeen {
			return fmt.Errorf("%s: histogram missing le=\"+Inf\" bucket", f.Name)
		}
		if !g.hasCnt {
			return fmt.Errorf("%s: histogram missing _count sample", f.Name)
		}
		if g.inf != g.count {
			return fmt.Errorf("%s: le=\"+Inf\" bucket (%g) != _count (%g)", f.Name, g.inf, g.count)
		}
	}
	return nil
}

func stripLe(ls Labels) Labels {
	if _, ok := ls["le"]; !ok {
		return ls
	}
	out := Labels{}
	for k, v := range ls {
		if k != "le" {
			out[k] = v
		}
	}
	return out
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad le value %q", s)
	}
	return v, nil
}

// parseSample parses `name{k="v",...} value` or `name value`.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: Labels{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabelBlock(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	// value, optionally followed by a timestamp we ignore
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabelBlock parses a {k="v",...} block at the start of s into out,
// returning the index just past the closing brace.
func parseLabelBlock(s string, out Labels) (int, error) {
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("malformed label block")
		}
		key := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label value for %q not quoted", key)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value for %q", key)
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape in label %q", key)
				}
				switch s[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return 0, fmt.Errorf("bad escape in label %q", key)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		out[key] = b.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}
