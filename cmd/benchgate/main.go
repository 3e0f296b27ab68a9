// Command benchgate is the CI benchmark-regression gate: it turns `go test
// -bench` text output into a comparable JSON trajectory point and fails
// when a hot-path benchmark regresses against a committed baseline.
//
// Record mode parses benchmark output (stdin or -in) into a JSON file —
// one entry per benchmark with its best ns/op (minimum across -count
// repetitions, the noise-robust choice) and best custom queries/s metric:
//
//	go test -bench . -benchtime 300ms -count 3 -run '^$' . | \
//	    benchgate -record -sha "$GITHUB_SHA" -out "BENCH_$GITHUB_SHA.json"
//
// Compare mode reads two such files and exits 1 when any benchmark present
// in both regressed by more than -max-regress (a fraction; 0.25 means a
// benchmark may be up to 25% slower, or serve up to 25% fewer queries/s,
// before the gate trips) — measured against the anchors, not the clock:
// every figure is first divided by the geometric mean, from its own file, of
// the benchmarks over code the serving rounds never touched (anchors), so a
// box that ran everything 1.7× slower on the day reads flat and the gate can
// be armed against any committed point, whatever machine recorded it. The
// baseline is the newest committed bench/BENCH_pr*.json:
//
//	benchgate -baseline bench/BENCH_pr20.json -current BENCH_$GITHUB_SHA.json
//
// Benchmarks present on only one side are reported but never fail the gate,
// so adding or retiring benchmarks does not wedge CI.
//
// Report mode renders a series of trajectory files — in commit order — as a
// markdown table, one row per benchmark and one column per commit, each cell
// showing ns/op with the anchor-normalised drift against the previous commit
// carrying that benchmark. It makes perf drift visible across a whole commit
// range before any single step trips the gate:
//
//	benchgate -report BENCH_aaa.json BENCH_bbb.json BENCH_ccc.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
)

// Point is one benchmark's measurement in a trajectory file.
type Point struct {
	// NsPerOp is the best (minimum) ns/op across repetitions.
	NsPerOp float64 `json:"ns_per_op"`
	// QPS is the best (maximum) custom queries/s metric, 0 when the
	// benchmark does not report one.
	QPS float64 `json:"qps,omitempty"`
	// Runs counts the repetitions aggregated.
	Runs int `json:"runs"`
}

// File is one trajectory point: every benchmark of one commit's run.
type File struct {
	SHA        string           `json:"sha,omitempty"`
	Benchmarks map[string]Point `json:"benchmarks"`
}

// anchors are the benchmarks over code round two has not touched; what they
// read is how fast the box was when the file was recorded.
var anchors = []string{"BenchmarkKendallTau", "BenchmarkEditDistance", "BenchmarkKNNLinear", "BenchmarkKNNVPTree"}

// yardstick returns the geometric mean ns/op of the anchors b carries, or 1
// (raw comparison) when it carries none.
func yardstick(b map[string]Point) float64 {
	sum, n := 0.0, 0.0
	for _, name := range anchors {
		if p, ok := b[name]; ok && p.NsPerOp > 0 {
			sum, n = sum+math.Log(p.NsPerOp), n+1
		}
	}
	if n == 0 {
		return 1
	}
	return math.Exp(sum / n)
}

// benchLine matches one `go test -bench` result line. The -N GOMAXPROCS
// suffix is stripped so the name is stable across machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op(.*)$`)
var qpsMetric = regexp.MustCompile(`([0-9.e+]+) queries/s`)

// parseBench folds benchmark output into per-name Points: minimum ns/op and
// maximum queries/s across repeated lines.
func parseBench(r io.Reader) (map[string]Point, error) {
	out := map[string]Point{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op %q: %w", m[2], err)
		}
		p := out[m[1]]
		if p.Runs == 0 || ns < p.NsPerOp {
			p.NsPerOp = ns
		}
		if q := qpsMetric.FindStringSubmatch(m[3]); q != nil {
			qps, err := strconv.ParseFloat(q[1], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad queries/s %q: %w", q[1], err)
			}
			if qps > p.QPS {
				p.QPS = qps
			}
		}
		p.Runs++
		out[m[1]] = p
	}
	return out, sc.Err()
}

// regression describes one gate violation.
type regression struct {
	name   string
	metric string
	base   float64
	cur    float64
	frac   float64 // how much worse, as a fraction of base
}

// compare gates current against baseline: a benchmark regresses when its
// ns/op grew, or its queries/s shrank, by more than maxRegress beyond the
// drift of the anchors between the two files. Only benchmarks present in
// both files are gated; the names present on one side only are returned for
// reporting.
func compare(baseline, current map[string]Point, maxRegress float64) (regs []regression, onlyBase, onlyCur []string) {
	drift := yardstick(current) / yardstick(baseline)
	for name, b := range baseline {
		c, ok := current[name]
		if !ok {
			onlyBase = append(onlyBase, name)
			continue
		}
		if b.NsPerOp > 0 {
			if frac := c.NsPerOp/b.NsPerOp/drift - 1; frac > maxRegress {
				regs = append(regs, regression{name, "ns/op", b.NsPerOp, c.NsPerOp, frac})
			}
		}
		if b.QPS > 0 && c.QPS > 0 {
			if frac := 1 - c.QPS/b.QPS*drift; frac > maxRegress {
				regs = append(regs, regression{name, "queries/s", b.QPS, c.QPS, frac})
			}
		}
	}
	for name := range current {
		if _, ok := baseline[name]; !ok {
			onlyCur = append(onlyCur, name)
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].name < regs[j].name })
	sort.Strings(onlyBase)
	sort.Strings(onlyCur)
	return regs, onlyBase, onlyCur
}

// columnLabel names a trajectory file in the report header: the short SHA
// when the file carries one, else the file's base name.
func columnLabel(path string, f File) string {
	label := f.SHA
	if label == "" {
		label = filepath.Base(path)
	}
	if len(label) > 12 {
		label = label[:12]
	}
	return label
}

// writeReport renders the trajectory files (in the given order) as a
// markdown table: benchmark × commit, ns/op with percentage drift — over
// the anchors' own drift — against the previous commit that has the
// benchmark.
func writeReport(w io.Writer, paths []string, files []File) error {
	names := map[string]bool{}
	for _, f := range files {
		for name := range f.Benchmarks {
			names[name] = true
		}
	}
	sorted := slices.Sorted(maps.Keys(names))

	fmt.Fprintf(w, "| benchmark |")
	for i, f := range files {
		fmt.Fprintf(w, " %s |", columnLabel(paths[i], f))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "|---|")
	for range files {
		fmt.Fprintf(w, "---:|")
	}
	fmt.Fprintln(w)
	for _, name := range sorted {
		fmt.Fprintf(w, "| %s |", name)
		prev := 0.0 // last ns/op ÷ yardstick seen for this benchmark, 0 = none yet
		for _, f := range files {
			p, ok := f.Benchmarks[name]
			norm := p.NsPerOp / yardstick(f.Benchmarks)
			switch {
			case !ok:
				fmt.Fprintf(w, " — |")
			case prev == 0:
				fmt.Fprintf(w, " %.4g ns/op |", p.NsPerOp)
			default:
				fmt.Fprintf(w, " %.4g ns/op (%+.1f%%) |", p.NsPerOp, (norm/prev-1)*100)
			}
			if ok {
				prev = norm
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

func readFile(path string) (File, error) {
	var f File
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	return f, nil
}

func main() {
	var (
		record     = flag.Bool("record", false, "parse `go test -bench` output into a trajectory JSON")
		in         = flag.String("in", "", "record: read benchmark output from this file instead of stdin")
		out        = flag.String("out", "", "record: write the JSON here (default stdout)")
		sha        = flag.String("sha", "", "record: commit SHA to stamp the file with")
		baseline   = flag.String("baseline", "", "compare: the committed baseline JSON")
		current    = flag.String("current", "", "compare: the fresh run's JSON")
		maxRegress = flag.Float64("max-regress", 0.25, "compare: fail when a benchmark is more than this fraction worse, over the anchors' drift")
		report     = flag.Bool("report", false, "render the trajectory files given as arguments (in commit order) as a markdown drift table")
	)
	flag.Parse()
	var reportFiles []string
	if *report {
		reportFiles = flag.Args()
	}
	if err := run(*record, *in, *out, *sha, *baseline, *current, *maxRegress, reportFiles, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(record bool, in, out, sha string, baseline, current string, maxRegress float64, report []string, w io.Writer) error {
	switch {
	case len(report) > 0:
		files := make([]File, len(report))
		for i, path := range report {
			f, err := readFile(path)
			if err != nil {
				return err
			}
			files[i] = f
		}
		return writeReport(w, report, files)
	case record:
		src := io.Reader(os.Stdin)
		if in != "" {
			f, err := os.Open(in)
			if err != nil {
				return err
			}
			defer f.Close()
			src = f
		}
		points, err := parseBench(src)
		if err != nil {
			return err
		}
		if len(points) == 0 {
			return fmt.Errorf("benchgate: no benchmark lines in input")
		}
		raw, err := json.MarshalIndent(File{SHA: sha, Benchmarks: points}, "", "  ")
		if err != nil {
			return err
		}
		raw = append(raw, '\n')
		if out == "" {
			_, err := w.Write(raw)
			return err
		}
		return os.WriteFile(out, raw, 0o644)
	case baseline != "" && current != "":
		base, err := readFile(baseline)
		if err != nil {
			return err
		}
		cur, err := readFile(current)
		if err != nil {
			return err
		}
		regs, onlyBase, onlyCur := compare(base.Benchmarks, cur.Benchmarks, maxRegress)
		for _, name := range onlyBase {
			fmt.Fprintf(w, "note: %s is in the baseline only (retired?)\n", name)
		}
		for _, name := range onlyCur {
			fmt.Fprintf(w, "note: %s is new (not in the baseline)\n", name)
		}
		drift := yardstick(cur.Benchmarks) / yardstick(base.Benchmarks)
		if len(regs) == 0 {
			fmt.Fprintf(w, "benchgate: %d benchmarks within %.0f%% of baseline %s, over anchors that read ×%.2f its\n",
				len(base.Benchmarks)-len(onlyBase), maxRegress*100, base.SHA, drift)
			return nil
		}
		for _, r := range regs {
			fmt.Fprintf(w, "REGRESSION: %s %s %.4g → %.4g (%.1f%% worse over the anchors, limit %.0f%%)\n",
				r.name, r.metric, r.base, r.cur, r.frac*100, maxRegress*100)
		}
		return fmt.Errorf("benchgate: %d regression(s) beyond %.0f%% vs baseline %s, over anchors that read ×%.2f its",
			len(regs), maxRegress*100, base.SHA, drift)
	default:
		return fmt.Errorf("benchgate: use -record, -baseline with -current, or -report with trajectory files (see package doc)")
	}
}
