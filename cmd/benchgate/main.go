// Command benchgate is the CI benchmark-regression gate. It runs the
// parent's and the change's test binaries (go test -c of the root package,
// each from its own directory) over the gated set alternately, one
// repetition a side for a fixed number of rounds, swapping which goes first
// every round, writes the change's rows as JSON to stdout and logs to stderr:
//
//	benchgate -parent ../parent/parent.test -change ./change.test -counts bench/COUNTS.json > BENCH.json
//
// A row fails when its median change ÷ parent ns/op ratio is past the bound
// and the change lost at least nine pairs in ten. evals/op and recall@10 are
// deterministic, so any evals/op increase or recall@10 decrease against the
// committed file fails, as does a row in only one of the file and the run. A
// change that moves a count on purpose re-records the file (benchgate
// -record -change ./change.test > bench/COUNTS.json).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

const (
	rounds = 10
	// maxSlowdown bounds a row's median ratio. A 20 % slowdown must fail; two
	// builds of one tree read medians ≤ 1.18 on a 2-core box, none 9/10 lost.
	maxSlowdown = 0.10
)

// benchSets are the gated benchmarks, one test-binary run each. The
// admission gate is gated at one closed-loop caller only: its conc=2, 8 and
// 64 rows depend on the runner's core count.
var benchSets = []string{
	`^(BenchmarkKNNLinear|BenchmarkKNNLAESA|BenchmarkKNNVPTree|BenchmarkKNNPermIndexBudget|BenchmarkScanOrder|BenchmarkKNNBudget|BenchmarkApproxKNN|BenchmarkKNNExhaustive|BenchmarkPermutationL2|BenchmarkKendallTau|BenchmarkEditDistance|BenchmarkMutableKNN|BenchmarkMutableKNNTombstones|BenchmarkOpenContainer|BenchmarkInstrumentedKNN|BenchmarkWALAppend|BenchmarkEngineThroughput|BenchmarkShardedThroughput|BenchmarkServeLoopback|BenchmarkPermIndexBuild)$`,
	`^BenchmarkCoalescedServing$/^conc=1$`,
}

// Counts are a row's deterministic figures, as go test prints them; 0 when
// the row reports none.
type Counts struct {
	Evals  float64 `json:"evals_per_op,omitempty"`
	Recall float64 `json:"recall_at_10,omitempty"`
}

// Point is one row's figures: its least ns/op, and the most evals/op and
// least recall@10 of its runs.
type Point struct {
	NsPerOp float64 `json:"ns_per_op"`
	Counts
}

// benchLine matches one `go test -bench` result line. The -N GOMAXPROCS
// suffix is stripped so the name is stable across machines.
var (
	benchLine    = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+(.* ns/op.*)$`)
	nsMetric     = regexp.MustCompile(`([0-9.e+]+) ns/op`)
	evalsMetric  = regexp.MustCompile(`([0-9.e+]+) evals/op`)
	recallMetric = regexp.MustCompile(`([0-9.e+-]+) recall@10\b`)
)

// fold merges run into p, the row's runs so far (zero: none).
func fold(p, run Point) Point {
	if p.NsPerOp == 0 {
		return run
	}
	p.NsPerOp, p.Evals = min(p.NsPerOp, run.NsPerOp), max(p.Evals, run.Evals)
	if run.Recall != 0 && (p.Recall == 0 || run.Recall < p.Recall) {
		p.Recall = run.Recall
	}
	return p
}

// parseBench folds benchmark output into per-row Points.
func parseBench(text string) (map[string]Point, error) {
	out := map[string]Point{}
	for _, line := range strings.Split(text, "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var run Point
		var err error
		for re, v := range map[*regexp.Regexp]*float64{nsMetric: &run.NsPerOp, evalsMetric: &run.Evals, recallMetric: &run.Recall} {
			if q := re.FindStringSubmatch(m[2]); q != nil {
				if *v, err = strconv.ParseFloat(q[1], 64); err != nil {
					return nil, fmt.Errorf("benchgate: bad metric %q: %w", q[0], err)
				}
			}
		}
		out[m[1]] = fold(out[m[1]], run)
	}
	return out, nil
}

// pass runs test binary bin over the gated set once, from its directory, and
// returns its rows.
func pass(bin string) (map[string]Point, error) {
	var out bytes.Buffer
	for _, set := range benchSets {
		cmd := exec.Command("./"+filepath.Base(bin), "-test.run", "^$", "-test.bench", set, "-test.benchtime", "300ms",
			"-test.count", "1", "-test.benchmem", "-test.timeout", "10m")
		cmd.Dir, cmd.Stdout, cmd.Stderr = filepath.Dir(bin), &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("benchgate: %s: %w\n%s", bin, err, out.String())
		}
	}
	return parseBench(out.String())
}

// pairs runs the parent (side 0) and the change (side 1) for n rounds, the
// parent first in even rounds and the change in odd ones, and returns each
// side's rows, one map a round.
func pairs(n int, sides [2]func() (map[string]Point, error), log io.Writer) ([2][]map[string]Point, error) {
	var got [2][]map[string]Point
	for r := range n {
		first := r % 2
		for _, s := range []int{first, 1 - first} {
			rows, err := sides[s]()
			if err != nil {
				return got, err
			}
			got[s] = append(got[s], rows)
		}
		fmt.Fprintf(log, "round %d/%d: %s first\n", r+1, n, [2]string{"parent", "change"}[first])
	}
	return got, nil
}

// verdict is one row's pairs: the median change ÷ parent ns/op ratio, the
// pairs the change lost (a tie counts for neither side) of npairs, and the
// gate's rule, slower: a median past the bound and nine pairs in ten lost.
type verdict struct {
	name         string
	median       float64
	lost, npairs int
	slower       bool
}

// judge pairs the two sides' rows round by round, and names each row only
// one side ran.
func judge(parent, change []map[string]Point) (vs []verdict, notes []string) {
	ratios, sides := map[string][]float64{}, map[string]int{}
	for r := range min(len(parent), len(change)) {
		for name, p := range parent[r] {
			sides[name] |= 1
			if c, ok := change[r][name]; ok {
				ratios[name] = append(ratios[name], c.NsPerOp/p.NsPerOp)
			}
		}
		for name := range change[r] {
			sides[name] |= 2
		}
	}
	for _, name := range slices.Sorted(maps.Keys(sides)) {
		rs := slices.Sorted(slices.Values(ratios[name]))
		switch {
		case len(rs) > 0:
			v := verdict{name: name, median: (rs[(len(rs)-1)/2] + rs[len(rs)/2]) / 2, npairs: len(rs)}
			for _, r := range rs {
				if r > 1 {
					v.lost++
				}
			}
			v.slower = v.median > 1+maxSlowdown && v.lost*10 >= 9*v.npairs
			vs = append(vs, v)
		default:
			notes = append(notes, fmt.Sprintf("note: %s ran on %s only\n", name, [4]string{1: "the parent", 2: "the change", 3: "each side in other rounds"}[sides[name]]))
		}
	}
	return vs, notes
}

// countsOf returns the counts of every row that reports any.
func countsOf(rows map[string]Point) map[string]Counts {
	out := map[string]Counts{}
	for name, p := range rows {
		if p.Counts != (Counts{}) {
			out[name] = p.Counts
		}
	}
	return out
}

// checkCounts returns a line for each failure of got against committed: an
// evals/op increase, a recall@10 decrease, or a row or figure in one only.
func checkCounts(committed, got map[string]Counts) []string {
	var fails []string
	all := maps.Clone(committed)
	maps.Copy(all, got)
	for _, name := range slices.Sorted(maps.Keys(all)) {
		want, inFile := committed[name]
		c, inRun := got[name]
		switch {
		case inFile != inRun:
			fails = append(fails, fmt.Sprintf("%s: counts in the file %v, in the run %v (re-record the file)", name, inFile, inRun))
		case c.Evals > want.Evals || (c.Evals == 0) != (want.Evals == 0):
			fails = append(fails, fmt.Sprintf("%s: evals/op %g → %g (0: none; a count, so any increase fails)", name, want.Evals, c.Evals))
		case c.Recall < want.Recall || (c.Recall == 0) != (want.Recall == 0):
			fails = append(fails, fmt.Sprintf("%s: recall@10 %g → %g (0: none; any decrease fails)", name, want.Recall, c.Recall))
		}
	}
	return fails
}

// gate runs the pairs and the counts check, writes the change's rows to out
// and the log to log, and returns an error when any row fails.
func gate(sides [2]func() (map[string]Point, error), committed map[string]Counts, out, log io.Writer) error {
	got, err := pairs(rounds, sides, log)
	if err != nil {
		return err
	}
	vs, notes := judge(got[0], got[1])
	fmt.Fprint(log, strings.Join(notes, ""))
	var fails []string
	fmt.Fprintf(log, "%-64s %8s %6s\n", "row", "median", "lost")
	for _, v := range vs {
		mark := ""
		if v.slower {
			mark = "  SLOWER"
			fails = append(fails, fmt.Sprintf("%s: median change ÷ parent ×%.3f, lost %d of %d pairs", v.name, v.median, v.lost, v.npairs))
		}
		fmt.Fprintf(log, "%-64s %8.3f %3d/%-2d%s\n", v.name, v.median, v.lost, v.npairs, mark)
	}
	rows := map[string]Point{}
	for _, round := range got[1] {
		for name, p := range round {
			rows[name] = fold(rows[name], p)
		}
	}
	fails = append(fails, checkCounts(committed, countsOf(rows))...)
	if err := writeJSON(out, rows); err != nil {
		return err
	}
	if len(fails) > 0 {
		return fmt.Errorf("benchgate: %d failure(s) against the parent and the committed counts:\nFAIL: %s",
			len(fails), strings.Join(fails, "\nFAIL: "))
	}
	fmt.Fprintf(log, "benchgate: %d rows paired, none failed; %d rows' counts as committed\n", len(vs), len(committed))
	return nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func main() {
	var (
		parent = flag.String("parent", "", "the parent commit's test binary (go test -c of the root package)")
		change = flag.String("change", "", "the change's test binary")
		counts = flag.String("counts", "", "the committed evals/op and recall@10 to gate against, bench/COUNTS.json")
		record = flag.Bool("record", false, "print the counts of one pass of -change, to commit as -counts, instead of gating")
	)
	flag.Parse()
	if err := run(*parent, *change, *counts, *record); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(parent, change, counts string, record bool) error {
	switch {
	case record && change != "":
		rows, err := pass(change)
		if err != nil {
			return err
		}
		return writeJSON(os.Stdout, countsOf(rows))
	case parent != "" && change != "" && counts != "":
		var committed map[string]Counts
		raw, err := os.ReadFile(counts)
		if err == nil {
			err = json.Unmarshal(raw, &committed)
		}
		if err != nil {
			return fmt.Errorf("benchgate: %s: %w", counts, err)
		}
		var sides [2]func() (map[string]Point, error)
		for i, bin := range []string{parent, change} {
			sides[i] = func() (map[string]Point, error) { return pass(bin) }
		}
		return gate(sides, committed, os.Stdout, os.Stderr)
	default:
		return errors.New("benchgate: use -parent, -change and -counts, or -record with -change (see package doc)")
	}
}
