package main

import (
	"os"
	"path/filepath"
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
BenchmarkEngineThroughput/workers=4-8  	    2590	    460100 ns/op	    555002 queries/s
BenchmarkPermutationL2-8	 4524525	       265.1 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	distperm	12.3s
`

func TestParseBench(t *testing.T) {
	points, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	lin, ok := points["BenchmarkKNNLinear"]
	if !ok || lin.Runs != 3 || lin.NsPerOp != 32950 {
		t.Errorf("KNNLinear = %+v (want min of 3 runs, 32950 ns/op)", lin)
	}
	eng, ok := points["BenchmarkEngineThroughput/workers=4"]
	if !ok || eng.Runs != 2 || eng.NsPerOp != 456087 || eng.QPS != 561623 {
		t.Errorf("EngineThroughput = %+v", eng)
	}
	perm, ok := points["BenchmarkPermutationL2"]
	if !ok || perm.NsPerOp != 265.1 || perm.QPS != 0 {
		t.Errorf("PermutationL2 = %+v", perm)
	}
	if empty, err := parseBench(strings.NewReader("no benchmarks here")); err != nil || len(empty) != 0 {
		t.Errorf("garbage input: %v, %v", empty, err)
	}
}

func TestCompareGate(t *testing.T) {
	base := map[string]Point{
		"A": {NsPerOp: 1000, Runs: 3},
		"B": {NsPerOp: 500, QPS: 10000, Runs: 3},
		"C": {NsPerOp: 200, Runs: 3}, // retired
	}
	cur := map[string]Point{
		"A": {NsPerOp: 1200, Runs: 3},           // 20% slower: within a 25% gate
		"B": {NsPerOp: 500, QPS: 7000, Runs: 3}, // 30% fewer queries/s: regression
		"D": {NsPerOp: 50, Runs: 3},             // new
	}
	regs, onlyBase, onlyCur := compare(base, cur, 0.25)
	if len(regs) != 1 || regs[0].name != "B" || regs[0].metric != "queries/s" {
		t.Fatalf("regs = %+v, want exactly B on queries/s", regs)
	}
	if len(onlyBase) != 1 || onlyBase[0] != "C" || len(onlyCur) != 1 || onlyCur[0] != "D" {
		t.Errorf("membership notes: %v, %v", onlyBase, onlyCur)
	}
	// A tighter gate catches the ns/op drift too.
	regs, _, _ = compare(base, cur, 0.1)
	if len(regs) != 2 {
		t.Errorf("10%% gate: %+v, want A and B", regs)
	}
	// Identical runs never regress.
	if regs, _, _ := compare(base, base, 0.25); len(regs) != 0 {
		t.Errorf("self-compare regressed: %+v", regs)
	}
	// With anchors in both files the gate measures against them: a box that
	// ran everything 1.7× slower reads flat, the one benchmark that lost 40%
	// on top of that is caught, and an anchor that alone doubles is caught
	// too (it moves the four-anchor mean by only 2^¼).
	day := func(scale float64, extra map[string]float64) map[string]Point {
		out := map[string]Point{}
		for name, ns := range map[string]float64{"BenchmarkKendallTau": 1300, "BenchmarkEditDistance": 220,
			"BenchmarkKNNLinear": 20800, "BenchmarkKNNVPTree": 7300, "BenchmarkServe": 150000, "BenchmarkScan": 900000} {
			f := scale
			if e, ok := extra[name]; ok {
				f *= e
			}
			out[name] = Point{NsPerOp: ns * f, QPS: 1e9 / (ns * f), Runs: 3}
		}
		return out
	}
	if regs, _, _ := compare(day(1, nil), day(1.7, nil), 0.25); len(regs) != 0 {
		t.Errorf("a uniformly 1.7× slower box regressed: %+v", regs)
	}
	regs, _, _ = compare(day(1, nil), day(1.7, map[string]float64{"BenchmarkServe": 1.4}), 0.25)
	if len(regs) != 2 || regs[0].name != "BenchmarkServe" || regs[1].name != "BenchmarkServe" {
		t.Errorf("slow box + one real 40%% loss: %+v, want BenchmarkServe on ns/op and queries/s", regs)
	}
	regs, _, _ = compare(day(1, nil), day(1, map[string]float64{"BenchmarkKNNLinear": 2}), 0.25)
	if len(regs) == 0 || regs[0].name != "BenchmarkKNNLinear" {
		t.Errorf("an anchor that alone doubled: %+v, want it caught", regs)
	}
}

// TestEndToEndGate drives record and compare through run(), including the
// injected-slowdown failure the CI gate exists for.
func TestEndToEndGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	in := write("bench.txt", sampleOutput)
	basePath := filepath.Join(dir, "base.json")
	var sink strings.Builder
	if err := run(true, in, basePath, "abc123", "", "", 0.25, nil, &sink); err != nil {
		t.Fatal(err)
	}
	// Same numbers against themselves: the gate passes.
	if err := run(false, "", "", "", basePath, basePath, 0.25, nil, &sink); err != nil {
		t.Fatalf("self-compare failed: %v", err)
	}
	// Inject a slowdown into the code under the gate — every figure but the
	// anchor's (BenchmarkKNNLinear) 10× worse — and the gate must trip.
	slow := strings.NewReplacer("456087", "4560870", "460100", "4601000", "265.1", "2651").Replace(sampleOutput)
	slowIn := write("slow.txt", slow)
	curPath := filepath.Join(dir, "cur.json")
	if err := run(true, slowIn, curPath, "def456", "", "", 0.25, nil, &sink); err != nil {
		t.Fatal(err)
	}
	sink.Reset()
	err := run(false, "", "", "", basePath, curPath, 0.25, nil, &sink)
	if err == nil {
		t.Fatalf("injected slowdown passed the gate:\n%s", sink.String())
	}
	if !strings.Contains(sink.String(), "REGRESSION: BenchmarkEngineThroughput/workers=4") ||
		!strings.Contains(sink.String(), "REGRESSION: BenchmarkPermutationL2") {
		t.Errorf("regression report missing:\n%s", sink.String())
	}
	// The same 10× on every line, the anchor included, is a slower box, not
	// a regression: figures from another machine or another day gate nothing
	// by themselves, which is what lets any committed point be the baseline.
	slowBox := strings.NewReplacer("33099", "330990", "32950", "329500", "34001", "340010").Replace(slow)
	boxPath := filepath.Join(dir, "box.json")
	if err := run(true, write("box.txt", slowBox), boxPath, "fed789", "", "", 0.25, nil, &sink); err != nil {
		t.Fatal(err)
	}
	sink.Reset()
	if err := run(false, "", "", "", basePath, boxPath, 0.25, nil, &sink); err != nil || !strings.Contains(sink.String(), "×10.00") {
		t.Errorf("a 10× slower box failed the gate: %v\n%s", err, sink.String())
	}

	// Missing-benchmark edge: an empty input errors in record mode.
	if err := run(true, write("empty.txt", "PASS\n"), "", "", "", "", 0.25, nil, &sink); err == nil {
		t.Error("empty benchmark output should error")
	}
	// No mode selected is a usage error.
	if err := run(false, "", "", "", "", "", 0.25, nil, &sink); err == nil {
		t.Error("no mode should error")
	}
}

// TestReportTable renders a three-commit trajectory as the markdown drift
// table the ROADMAP's bench-trajectory item asks for.
func TestReportTable(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("BENCH_a.json", `{"sha":"aaaaaaaaaaaaaaaa","benchmarks":{
		"BenchmarkX":{"ns_per_op":1000,"runs":3},
		"BenchmarkRetired":{"ns_per_op":50,"runs":3}}}`)
	b := write("BENCH_b.json", `{"sha":"bbbbbbbbbbbbbbbb","benchmarks":{
		"BenchmarkX":{"ns_per_op":1100,"runs":3},
		"BenchmarkNew":{"ns_per_op":200,"runs":3},
		"BenchmarkBatchedKernel/data=uniform/batch=64":{"ns_per_op":16000000,"runs":3}}}`)
	c := write("BENCH_c.json", `{"benchmarks":{
		"BenchmarkX":{"ns_per_op":880,"runs":3},
		"BenchmarkNew":{"ns_per_op":200,"runs":3},
		"BenchmarkBatchedKernel/data=uniform/batch=64":{"ns_per_op":12000000,"runs":3}}}`)

	var sink strings.Builder
	if err := run(false, "", "", "", "", "", 0.25, []string{a, b, c}, &sink); err != nil {
		t.Fatal(err)
	}
	got := sink.String()
	for _, want := range []string{
		// Columns: short SHA, basename fallback. First
		// appearance of a benchmark has no drift; later cells show % vs the
		// previous commit carrying it, and absences render as a dash.
		"| benchmark | aaaaaaaaaaaa | bbbbbbbbbbbb | BENCH_c.json |",
		"| BenchmarkX | 1000 ns/op | 1100 ns/op (+10.0%) | 880 ns/op (-20.0%) |",
		"| BenchmarkRetired | 50 ns/op | — | — |",
		"| BenchmarkNew | — | 200 ns/op | 200 ns/op (+0.0%) |",
		// Sub-benchmark paths (slashes, key=value components) flow through
		// the drift cells untouched.
		"| BenchmarkBatchedKernel/data=uniform/batch=64 | — | 1.6e+07 ns/op | 1.2e+07 ns/op (-25.0%) |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	// An unreadable file is an error, not a blank column.
	if err := run(false, "", "", "", "", "", 0.25, []string{filepath.Join(dir, "missing.json")}, &sink); err == nil {
		t.Error("missing trajectory file should error")
	}
	// Files that carry anchors report drift over the anchors' own: the box
	// ran 1.5× slower for the second file and BenchmarkX 1.53× — +2% — while
	// BenchmarkY, unmoved on the clock, got a third faster.
	d := write("BENCH_d.json", `{"sha":"d","benchmarks":{"BenchmarkKNNLinear":{"ns_per_op":20000,"runs":3},
		"BenchmarkX":{"ns_per_op":1000,"runs":3},"BenchmarkY":{"ns_per_op":600,"runs":3}}}`)
	e := write("BENCH_e.json", `{"sha":"e","benchmarks":{"BenchmarkKNNLinear":{"ns_per_op":30000,"runs":3},
		"BenchmarkX":{"ns_per_op":1530,"runs":3},"BenchmarkY":{"ns_per_op":600,"runs":3}}}`)
	sink.Reset()
	if err := run(false, "", "", "", "", "", 0.25, []string{d, e}, &sink); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| BenchmarkX | 1000 ns/op | 1530 ns/op (+2.0%) |", "| BenchmarkY | 600 ns/op | 600 ns/op (-33.3%) |"} {
		if !strings.Contains(sink.String(), want) {
			t.Errorf("normalised report missing %q:\n%s", want, sink.String())
		}
	}
}
