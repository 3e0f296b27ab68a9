package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: distperm
BenchmarkKNNLinear-8   	   35870	     33099 ns/op
BenchmarkKNNLinear-8   	   36012	     32950 ns/op
BenchmarkKNNLinear-8   	   35011	     34001 ns/op
BenchmarkEngineThroughput/workers=4-8  	    2623	    456087 ns/op	    561623 queries/s
BenchmarkPermutationL2-8	 4524525	       265.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkApproxKNN/data=clustered/nprobe=4-2         	   10000	     56000 ns/op	         0.9703 recall@10	      5639 evals/op
BenchmarkApproxKNN/data=clustered/nprobe=4-2         	   10000	     55000 ns/op	         0.9702 recall@10	      5640 evals/op
BenchmarkRecallCurve-2	       1	  12345 ns/op	         0.8000 recall@5%
PASS
ok  	distperm	12.3s
`

func TestParseBench(t *testing.T) {
	points, err := parseBench(sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Point{
		"BenchmarkKNNLinear":                         {NsPerOp: 32950},
		"BenchmarkEngineThroughput/workers=4":        {NsPerOp: 456087},
		"BenchmarkPermutationL2":                     {NsPerOp: 265.1},
		"BenchmarkApproxKNN/data=clustered/nprobe=4": {NsPerOp: 55000, Counts: Counts{Evals: 5640, Recall: 0.9702}},
		"BenchmarkRecallCurve":                       {NsPerOp: 12345},
	}
	if len(points) != len(want) {
		t.Errorf("parsed %d rows, want %d: %+v", len(points), len(want), points)
	}
	for name, w := range want {
		if got := points[name]; got != w {
			t.Errorf("%s = %+v, want %+v (least ns/op, most evals/op, least recall@10)", name, got, w)
		}
	}
	if empty, err := parseBench("no benchmarks here"); err != nil || len(empty) != 0 {
		t.Errorf("garbage input: %v, %v", empty, err)
	}
}

// side is a canned test binary: every pass reads ns, and evals where given.
func side(ns, evals map[string]float64) func() (map[string]Point, error) {
	return func() (map[string]Point, error) {
		var b strings.Builder
		for name, v := range ns {
			fmt.Fprintf(&b, "%s-2   \t 1000\t %.1f ns/op", name, v)
			if e, ok := evals[name]; ok {
				fmt.Fprintf(&b, "\t %.0f evals/op", e)
			}
			b.WriteString("\n")
		}
		return parseBench(b.String())
	}
}

// TestPairsAlternate: the parent goes first in even rounds and the change in
// odd ones, each side's rounds come back in order, and a failing side stops
// the gate.
func TestPairsAlternate(t *testing.T) {
	var order strings.Builder
	round := [2]float64{}
	tagged := func(s int, tag string) func() (map[string]Point, error) {
		return func() (map[string]Point, error) {
			order.WriteString(tag)
			round[s]++
			return map[string]Point{"BenchmarkX": {NsPerOp: 100*float64(s) + round[s]}}, nil
		}
	}
	var log strings.Builder
	got, err := pairs(6, [2]func() (map[string]Point, error){tagged(0, "p"), tagged(1, "c")}, &log)
	if err != nil {
		t.Fatal(err)
	}
	if order.String() != "pccppccppccp" {
		t.Errorf("run order %q, want pc cp pc cp pc cp", order.String())
	}
	for s, base := range []float64{0, 100} {
		for r, rows := range got[s] {
			if rows["BenchmarkX"].NsPerOp != base+float64(r+1) {
				t.Errorf("side %d round %d = %+v", s, r, rows)
			}
		}
	}
	if !strings.Contains(log.String(), "round 2/6: change first") {
		t.Errorf("log does not say who went first:\n%s", log.String())
	}
	broken := errors.New("exit status 1")
	fail := func() (map[string]Point, error) { return nil, broken }
	if _, err := pairs(1, [2]func() (map[string]Point, error){tagged(0, "p"), fail}, &log); !errors.Is(err, broken) {
		t.Errorf("a failing side: %v", err)
	}
}

// perRound builds one round per ns/op given, of one row.
func perRound(name string, ns ...float64) []map[string]Point {
	out := make([]map[string]Point, len(ns))
	for r, v := range ns {
		out[r] = map[string]Point{name: {NsPerOp: v}}
	}
	return out
}

// TestPairRule: a row is slower only on a median ratio past the bound and
// nine or more pairs in ten lost; ties count for neither side; rows one side
// never ran are noted, never judged.
func TestPairRule(t *testing.T) {
	parent := perRound("X", 100, 100, 100, 100, 100, 100, 100, 100, 100, 100)
	for _, tc := range []struct {
		name   string
		change []float64
		median float64
		lost   int
		slower bool
	}{
		{"20% slower every pair", []float64{120, 120, 120, 120, 120, 120, 120, 120, 120, 120}, 1.2, 10, true},
		{"slower in nine", []float64{125, 121, 130, 118, 140, 119, 122, 124, 126, 90}, 1.23, 9, true},
		{"slow median, eight pairs", []float64{125, 121, 130, 118, 140, 119, 122, 124, 90, 95}, 1.215, 8, false},
		{"lost all, median inside", []float64{105, 105, 105, 105, 105, 105, 105, 105, 105, 105}, 1.05, 10, false},
		{"ties count for neither", []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 150}, 1, 1, false},
		{"just past the bound", []float64{111, 111, 111, 111, 111, 111, 111, 111, 111, 111}, 1.11, 10, true},
	} {
		vs, notes := judge(parent, perRound("X", tc.change...))
		if len(vs) != 1 || len(notes) != 0 {
			t.Fatalf("%s: %d verdicts, notes %q", tc.name, len(vs), notes)
		}
		v := vs[0]
		if d := v.median - tc.median; d > 1e-9 || d < -1e-9 || v.lost != tc.lost || v.npairs != 10 || v.slower != tc.slower {
			t.Errorf("%s: median %v, lost %d of %d, slower %v; want %v, %d of 10, %v",
				tc.name, v.median, v.lost, v.npairs, v.slower, tc.median, tc.lost, tc.slower)
		}
	}
	// Rows on one side only, and a round only one side has, are not paired.
	par := []map[string]Point{{"A": {NsPerOp: 1}, "Old": {NsPerOp: 1}}, {"A": {NsPerOp: 1}}}
	chg := []map[string]Point{{"A": {NsPerOp: 2}, "New": {NsPerOp: 1}}}
	vs, notes := judge(par, chg)
	if len(vs) != 1 || vs[0].name != "A" || vs[0].npairs != 1 || vs[0].median != 2 {
		t.Errorf("verdicts %+v, want A paired once at ×2", vs)
	}
	if want := "note: New ran on the change only\nnote: Old ran on the parent only\n"; strings.Join(notes, "") != want {
		t.Errorf("notes %q, want %q", notes, want)
	}
}

// objdumpL2 is `go tool objdump` of DB.measure's L2 case, cut down, with a
// MULSD added to the outer loop (a halving, say): the outer loop's backward
// JMP spans both MULSDs, the inner loop's JL only its own, and is shorter.
const objdumpL2 = `TEXT distperm/internal/sisap.(*DB).measure(SB) /src/internal/sisap/measure.go
  measure.go:275	0x6fb545		48ffc0			INCQ AX
  measure.go:275	0x6fb548		4939c3			CMPQ R11, AX
  measure.go:275	0x6fb54b		0f8ec9000000		JLE 0x6fb61a
  measure.go:282	0x6fb5a0		77a3			JA 0x6fb545
  measure.go:290	0x6fb5a2		f20f59d3		MULSD X3, X2
  measure.go:283	0x6fb615		e92bffffff		JMP 0x6fb545
  measure.go:286	0x6fb620		c3			RET
  measure.go:278	0x6fb621		f2410f1014d4		MOVSD_XMM 0(R12)(DX*8), X2
  measure.go:279	0x6fb627		f20f5c14d1		SUBSD 0(CX)(DX*8), X2
  measure.go:280	0x6fb62c		f20f59d2		MULSD X2, X2
  measure.go:278	0x6fb630		48ffc2			INCQ DX
  measure.go:280	0x6fb633		f20f58c2		ADDSD X2, X0
  measure.go:278	0x6fb637		4c39ea			CMPQ DX, R13
  measure.go:278	0x6fb63a		7ce5			JL 0x6fb621
  measure.go:278	0x6fb63c		0f1f4000		NOPL 0(AX)
  measure.go:278	0x6fb640		e951ffffff		JMP 0x6fb596
`

func TestPlacement(t *testing.T) {
	p, err := l2Loop(objdumpL2)
	if err != nil {
		t.Fatal(err)
	}
	if want := "0x6fb621–0x6fb63c, 27 bytes, starts 33 mod 64, crosses a 64-byte line: false"; p != (placement{0x6fb621, 0x6fb63c}) || p.String() != want {
		t.Errorf("loop %q, want %q", p, want)
	}
	// The loop from 55 mod 64 crosses a line.
	moved := "  m.go:1\t0x1037\t\tf2410f1014d4\t\tMOVSD_XMM 0(R12)(DX*8), X2\n" +
		"  m.go:2\t0x1042\t\tf20f59d2\t\tMULSD X2, X2\n" +
		"  m.go:3\t0x1050\t\t7ce5\t\t\tJL 0x1037\n"
	if p, err := l2Loop(moved); err != nil || p != (placement{0x1037, 0x1052}) || !p.crosses() || p.start%64 != 55 {
		t.Errorf("moved loop %v (%v), want 0x1037–0x1052 crossing a line", p, err)
	}
	// An L1 or L∞ loop squares nothing: no L2 loop is an error.
	if _, err := l2Loop(strings.ReplaceAll(objdumpL2, "MULSD", "ANDPD")); err == nil {
		t.Error("found an L2 loop with no MULSD")
	}
}

// scaled returns base with the rows of scale multiplied by it.
func scaled(base, scale map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name, ns := range base {
		out[name] = ns
		if s, ok := scale[name]; ok {
			out[name] = ns * s
		}
	}
	return out
}

// TestEndToEndGate drives the gate as CI runs it, on canned outputs: the
// change's rows on out, an injected slowdown failing, and the same slowdown
// across placements that differ in kind reported, not failed.
func TestEndToEndGate(t *testing.T) {
	base := map[string]float64{"BenchmarkKNNExhaustive/knn": 60000, "BenchmarkKNNLinear": 33000}
	evals := map[string]float64{"BenchmarkKNNExhaustive/knn": 6203}
	committed := map[string]Counts{"BenchmarkKNNExhaustive/knn": {Evals: 6203}}
	inside, crossing := placement{0x6fb621, 0x6fb63c}, placement{0x6fb637, 0x6fb652}
	slowed := func(scale map[string]float64) [2]func() (map[string]Point, error) {
		return [2]func() (map[string]Point, error){side(base, nil), side(scaled(base, scale), evals)}
	}

	var out, log strings.Builder
	if err := gate(slowed(nil), [2]placement{inside, inside}, committed, &out, &log); err != nil {
		t.Fatalf("no change failed the gate: %v\n%s", err, log.String())
	}
	var rows map[string]Point
	if err := json.Unmarshal([]byte(out.String()), &rows); err != nil {
		t.Fatal(err)
	}
	if p := rows["BenchmarkKNNExhaustive/knn"]; len(rows) != 2 || p.NsPerOp != 60000 || p.Evals != 6203 {
		t.Errorf("the change's rows: %+v", rows)
	}
	for _, want := range []string{"parent 0x6fb621–0x6fb63c, 27 bytes, starts 33 mod 64", "change 0x6fb621", "round 10/10"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, log.String())
		}
	}

	slow := map[string]float64{"BenchmarkKNNExhaustive/knn": 1.25}
	out.Reset()
	err := gate(slowed(slow), [2]placement{inside, inside}, committed, &out, &log)
	if err == nil || !strings.Contains(err.Error(), "FAIL: BenchmarkKNNExhaustive/knn: median change ÷ parent ×1.250, lost 10 of 10 pairs") ||
		strings.Contains(err.Error(), "BenchmarkKNNLinear") {
		t.Errorf("a 25%% slowdown: %v", err)
	}
	if out.Len() == 0 {
		t.Error("a failing gate wrote no rows")
	}
	log.Reset()
	if err := gate(slowed(slow), [2]placement{inside, crossing}, committed, &out, &log); err != nil ||
		!strings.Contains(log.String(), "slower, but placement differs: not failed") {
		t.Errorf("a slowdown across placements: %v\n%s", err, log.String())
	}
	// Placements that differ in address but not in kind excuse nothing.
	if err := gate(slowed(slow), [2]placement{inside, {0x6fb601, 0x6fb61c}}, committed, &out, &log); err == nil {
		t.Error("a slowdown at a placement of the same kind passed")
	}
}

// TestEvalsGate: evals/op and recall@10 are gated raw against the committed
// file, whatever the clock says.
func TestEvalsGate(t *testing.T) {
	committed := map[string]Counts{
		"Exhaustive/knn":   {Evals: 6203},
		"Approx/nprobe=4":  {Evals: 5639, Recall: 0.9703},
		"Approx/linear":    {Recall: 1},
		"Exhaustive/range": {Evals: 6203},
	}
	for _, tc := range []struct {
		name string
		row  string
		got  Counts
		want string // "" when it passes
	}{
		{"unchanged", "Exhaustive/knn", Counts{Evals: 6203}, ""},
		{"every cell at its bucket's LB", "Exhaustive/knn", Counts{Evals: 9386}, "Exhaustive/knn: evals/op 6203 → 9386"},
		{"one eval more", "Exhaustive/knn", Counts{Evals: 6204}, "evals/op 6203 → 6204"},
		{"fewer evals", "Exhaustive/knn", Counts{Evals: 6000}, ""},
		{"lower recall", "Approx/nprobe=4", Counts{Evals: 5639, Recall: 0.9702}, "recall@10 0.9703 → 0.9702"},
		{"higher recall, fewer evals", "Approx/nprobe=4", Counts{Evals: 5000, Recall: 0.99}, ""},
		{"stops reporting recall", "Approx/nprobe=4", Counts{Evals: 5639}, "recall@10 0.9703 → 0"},
		{"starts reporting evals", "Approx/linear", Counts{Evals: 10, Recall: 1}, "evals/op 0 → 10"},
	} {
		got := map[string]Counts{}
		for name, c := range committed {
			got[name] = c
		}
		got[tc.row] = tc.got
		fails := checkCounts(committed, got)
		if tc.want == "" && len(fails) != 0 || tc.want != "" && (len(fails) != 1 || !strings.Contains(fails[0], tc.want)) {
			t.Errorf("%s: %q, want %q", tc.name, fails, tc.want)
		}
	}
	// A row in one and not the other fails until the file is re-recorded.
	got := map[string]Counts{"Exhaustive/knn": {Evals: 6203}, "Approx/nprobe=4": {Evals: 5639, Recall: 0.9703},
		"Approx/linear": {Recall: 1}, "New/row": {Evals: 7}}
	if fails := checkCounts(committed, got); len(fails) != 2 ||
		!strings.Contains(fails[0], "Exhaustive/range: counts in the file true, in the run false") ||
		!strings.Contains(fails[1], "New/row: counts in the file false, in the run true") {
		t.Errorf("membership: %q", fails)
	}

	// What -record prints is the file the gate reads back: the rows that
	// report a count, and no time. Against it the gate fails a count whatever
	// the clock says.
	base := map[string]float64{"BenchmarkKNNExhaustive/knn": 60000, "BenchmarkKNNExhaustive/linear": 1e6}
	rows, err := side(base, map[string]float64{"BenchmarkKNNExhaustive/knn": 6203})()
	if err != nil {
		t.Fatal(err)
	}
	var file strings.Builder
	if err := writeJSON(&file, countsOf(rows)); err != nil {
		t.Fatal(err)
	}
	var recorded map[string]Counts
	if err := json.Unmarshal([]byte(file.String()), &recorded); err != nil || strings.Contains(file.String(), "ns_per_op") ||
		len(recorded) != 1 || recorded["BenchmarkKNNExhaustive/knn"] != (Counts{Evals: 6203}) {
		t.Fatalf("recorded %s (%v), want only BenchmarkKNNExhaustive/knn at 6203 evals/op", file.String(), err)
	}
	faster := scaled(base, map[string]float64{"BenchmarkKNNExhaustive/knn": 0.5})
	sides := [2]func() (map[string]Point, error){side(base, nil), side(faster, map[string]float64{"BenchmarkKNNExhaustive/knn": 6210})}
	inside := placement{0x6fb621, 0x6fb63c}
	var out, log strings.Builder
	if err := gate(sides, [2]placement{inside, inside}, recorded, &out, &log); err == nil ||
		!strings.Contains(err.Error(), "FAIL: BenchmarkKNNExhaustive/knn: evals/op 6203 → 6210") {
		t.Errorf("7 more evals a query on a 2× faster change passed: %v", err)
	}
}
