package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesRegistry holds BENCHMARK.json and the metric and
// workload tables in this package to each other, and both to the contract's
// limits.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloadDefs) || len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json names %d workloads, perflab runs %d (2..8 allowed)", len(b.Workloads), len(workloadDefs))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloadDefs[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in perflab", i, w.Name, workloadDefs[i].Name)
		}
		if w.Why != workloadDefs[i].Why || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be perflab's own, one line of at most 200 characters; is %q", w.Name, w.Why)
		}
	}
	same := func(kind string, file []benchMetric, reg []metricDef, bounded bool, limit int) {
		t.Helper()
		if len(file) != len(reg) || len(file) < 1 || len(file) > limit {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perflab %d (1..%d allowed)", kind, len(file), len(reg), limit)
		}
		for i, f := range file {
			unique(f.Name)
			r := reg[i]
			if f.Name != r.Name || f.Unit != r.Unit || f.Better != r.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s, %s], perflab has %s [%s, %s]", kind, i, f.Name, f.Unit, f.Better, r.Name, r.Unit, r.Better)
			}
			if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(f.Unit) {
				t.Errorf("%s: unit %q is outside the contract", f.Name, f.Unit)
			}
			if f.Better != "lower" && f.Better != "higher" {
				t.Errorf("%s: better is %q", f.Name, f.Better)
			}
			switch {
			case bounded && (f.Bound == nil || *f.Bound != r.Bound || *f.Bound <= 0 || *f.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in perflab (0 < bound <= 0.25)", f.Name, f.Bound, r.Bound)
			case !bounded && f.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", f.Name)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true, 16)
	same("per_layer", b.PerLayer, allPerLayer(), false, 128)
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perflab" {
		t.Errorf("paths = %v, want [perflab]", b.Paths)
	}
}

// TestSmokePipeline runs the whole lab at smoke scale — set-ups, gates,
// rounds, ladder, results.json, trace.json, -compare — and checks that what
// comes out is complete and self-consistent. It asserts no timing.
func TestSmokePipeline(t *testing.T) {
	out := t.TempDir()
	res, err := runLab(context.Background(), 1, smokeScale, out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(out); len(entries) != 2 {
		t.Errorf("the run left %d entries in -out, want results.json and trace.json only", len(entries))
	}

	if len(res.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workload results, want %d", len(res.Workloads), len(workloadDefs))
	}
	for i, wr := range res.Workloads {
		if wr.Name != workloadDefs[i].Name {
			t.Errorf("workload %d is %s, want %s", i, wr.Name, workloadDefs[i].Name)
		}
		if wr.Failed != 0 || wr.Ops == 0 {
			t.Errorf("%s: %d of %d operations failed: %s", wr.Name, wr.Failed, wr.Ops, wr.FirstError)
		}
		want := map[string]bool{}
		for _, def := range endToEnd {
			want[def.Name] = true
			st, ok := wr.EndToEnd[def.Name]
			if !ok || st.Value <= 0 || math.IsNaN(st.Value) || math.IsInf(st.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v); every one must be reported and non-zero", wr.Name, def.Name, st.Value, ok)
			}
			if st.Unit != def.Unit || len(st.Samples) == 0 {
				t.Errorf("%s: %s has unit %q and %d sample counts", wr.Name, def.Name, st.Unit, len(st.Samples))
			}
		}
		for _, def := range demoted {
			if def.Name == "p95_ms" || wr.Name == "mixed-rw-sharded" {
				want[def.Name] = true
				if wr.EndToEnd[def.Name].Value <= 0 {
					t.Errorf("%s: %s = %v", wr.Name, def.Name, wr.EndToEnd[def.Name].Value)
				}
			}
		}
		for name := range wr.EndToEnd {
			if !want[name] {
				t.Errorf("%s: unnamed end-to-end metric %s", wr.Name, name)
			}
		}
		perRun := map[string]bool{}
		for _, def := range allPerLayer() {
			if !def.PerRun {
				continue
			}
			perRun[def.Name] = true
			if v, ok := wr.Layers[def.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-run layer metric %s = %v (present %v)", wr.Name, def.Name, v, ok)
			}
		}
		for name := range wr.Layers {
			if !perRun[name] {
				t.Errorf("%s: unnamed per-run layer metric %s", wr.Name, name)
			}
		}
	}
	if r := res.Workloads[1].EndToEnd["recall_at_10"].Value; r >= 1 || r < 0.5 {
		t.Errorf("approx-mmap recall_at_10 = %v, want an approximate answer of reasonable quality", r)
	}
	if h := res.Workloads[3].Layers["cache.hit_ratio"]; h < 0.99 {
		t.Errorf("cache-hot hit ratio = %v, want ~1", h)
	}
	if h := res.Workloads[0].Layers["cache.hit_ratio"]; h != 0 {
		t.Errorf("exact-cold hit ratio = %v, want 0", h)
	}

	ladder := map[string]bool{}
	for _, def := range perLayer {
		if def.PerRun {
			continue
		}
		ladder[def.Name] = true
		if v, ok := res.Layers[def.Name]; !ok || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("ladder metric %s = %v (present %v)", def.Name, v, ok)
		}
	}
	for name := range res.Layers {
		if !ladder[name] {
			t.Errorf("unnamed ladder metric %s", name)
		}
	}
	if len(res.Ladders) == 0 {
		t.Fatal("no ladder tables")
	}
	for _, lt := range res.Ladders {
		sum := 0.0
		for _, r := range lt.Rungs {
			if r.SelfUs < 0 {
				t.Errorf("ladder %q: rung %s has self time %v", lt.Name, r.Name, r.SelfUs)
			}
			sum += r.SelfUs
		}
		if outer := lt.Rungs[0].MedianUs; math.Abs(sum-outer) > 1e-6*outer {
			t.Errorf("ladder %q: self times sum to %v, outermost rung is %v", lt.Name, sum, outer)
		}
	}

	// trace.json: every span's parent exists and belongs to the same query.
	raw, err := os.ReadFile(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	byID := map[int]span{}
	for _, sp := range tr.Spans {
		byID[sp.ID] = sp
	}
	if len(tr.Spans) == 0 || len(byID) != len(tr.Spans) {
		t.Fatalf("trace.json holds %d spans with %d distinct IDs", len(tr.Spans), len(byID))
	}
	for _, sp := range tr.Spans {
		if sp.EndNs < sp.StartNs || sp.Name == "" {
			t.Errorf("span %d (%q) runs from %d to %d", sp.ID, sp.Name, sp.StartNs, sp.EndNs)
		}
		if sp.Parent == -1 {
			continue
		}
		if p, ok := byID[sp.Parent]; !ok || p.Query != sp.Query {
			t.Errorf("span %d (%s, query %d): parent %d missing or of another query", sp.ID, sp.Name, sp.Query, sp.Parent)
		}
	}

	// results.json round-trips, and a run compared with itself is clean.
	back, err := loadResults(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.Seed != 1 || back.Meta.GoVersion == "" || back.Meta.NProc == 0 || back.Meta.GOMAXPROCS == 0 || back.Meta.Commit == "" {
		t.Errorf("results.json meta is incomplete: %+v", back.Meta)
	}
	var table bytes.Buffer
	if !compare(&table, back, back) {
		t.Errorf("a run compared with itself is not clean:\n%s", table.String())
	}
	var report bytes.Buffer
	res.print(&report)
	for _, def := range append(allPerLayer(), endToEnd...) {
		if !strings.Contains(report.String(), def.Name) {
			t.Errorf("the printed report does not name %s", def.Name)
		}
	}
}

// TestResultLine checks the one-line form BENCHMARK.json's command prints:
// exactly the contract's keys, with every end-to-end metric under -trace 0
// and every per-layer metric under -trace 1.
func TestResultLine(t *testing.T) {
	for _, tc := range []struct {
		workload string
		traced   bool
		want     []metricDef
	}{
		{"approx-mmap", false, endToEnd},
		{"mixed-rw-sharded", true, allPerLayer()},
	} {
		line, ok, err := runOne(context.Background(), tc.workload, 2, smokeScale.forSeconds(0.5), tc.traced, t.TempDir())
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", tc.workload, ok, err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("%s: %v in %s", tc.workload, err, line)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Fatalf("%s: result line has keys other than correct, attempted, failed, metrics: %s", tc.workload, line)
		}
		var metrics map[string]jsonMetric
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.want) {
			t.Errorf("%s: %d metrics, want %d", tc.workload, len(metrics), len(tc.want))
		}
		for _, def := range tc.want {
			if m, ok := metrics[def.Name]; !ok || m.Unit != def.Unit {
				t.Errorf("%s: metric %s missing or in unit %q, want %q", tc.workload, def.Name, m.Unit, def.Unit)
			}
		}
	}
	if _, _, err := runOne(context.Background(), "no-such-workload", 1, smokeScale, false, t.TempDir()); err == nil {
		t.Error("an unknown workload must be an error")
	}
}

// streamBytes serialises the first n requests of every client of every
// workload for a seed.
func streamBytes(seed int64, n int) []byte {
	sc := smokeScale
	var b []byte
	for _, def := range workloadDefs {
		st, err := genStore(seed, def.Store, sc)
		if err != nil {
			panic(err)
		}
		pts := st.points()
		pool := queries(seed, "pool", pts, sc.Pool)
		for c := 0; c < clients; c++ {
			g := newGenerator(seed, def.Name, c, pts, pool)
			for i := 0; i < n; i++ {
				b = g.next().appendBytes(b)
			}
		}
		for _, q := range queries(seed, "verify/"+def.Name, pts, sc.Verify) {
			b = op{q: q}.appendBytes(b)
		}
	}
	return b
}

// TestSeededStreams: the seed is the only source of randomness in the
// generated inputs.
func TestSeededStreams(t *testing.T) {
	a, again, other := streamBytes(7, 200), streamBytes(7, 200), streamBytes(8, 200)
	if !bytes.Equal(a, again) {
		t.Error("the same seed generated different request streams")
	}
	if bytes.Equal(a, other) {
		t.Error("different seeds generated the same request streams")
	}
	// The mixed stream writes one op in ten, alternating insert and delete,
	// never deletes an ID twice across both clients, and follows every
	// insert with its read-back.
	s3, err := genStore(7, "S3", smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	pts := s3.points()
	deleted := map[int]bool{}
	for c := 0; c < clients; c++ {
		g := newGenerator(7, "mixed-rw-sharded", c, pts, nil)
		writes, prev := 0, op{}
		for i := 0; i < 1000; i++ {
			o := g.next()
			if o.isWrite() {
				writes++
			}
			if o.kind == opDelete {
				if deleted[o.id] {
					t.Fatalf("ID %d deleted twice", o.id)
				}
				deleted[o.id] = true
			}
			if (prev.kind == opInsert) != (o.kind == opReadback) {
				t.Fatalf("client %d op %d: insert and read-back do not pair up", c, i)
			}
			prev = o
		}
		if writes != 100 {
			t.Errorf("client %d: %d writes in 1000 ops, want 100", c, writes)
		}
	}
}

// TestCompareVerdicts drives -compare through ok, unresolved and worse.
func TestCompareVerdicts(t *testing.T) {
	mk := func(qps []float64, failed int64) *results {
		e2e := map[string]stat{"qps": newStat("1/s", qps, []int{1, 1, 1})}
		return &results{Workloads: []workloadResult{{Name: "exact-cold", Ops: 100, Failed: failed, EndToEnd: e2e}}}
	}
	base := mk([]float64{95, 100, 105}, 0)
	for _, tc := range []struct {
		name    string
		b       *results
		ok      bool
		verdict string
	}{
		{"within the bound", mk([]float64{90, 95, 99}, 0), true, "ok"},
		{"beyond the bound, ranges overlap", mk([]float64{80, 85, 96}, 0), true, "unresolved"},
		{"beyond the bound, ranges apart", mk([]float64{80, 85, 88}, 0), false, "worse"},
		{"better", mk([]float64{120, 125, 130}, 0), true, "ok"},
		{"more failures", mk([]float64{95, 100, 105}, 3), false, "worse"},
	} {
		var buf bytes.Buffer
		if got := compare(&buf, base, tc.b); got != tc.ok || !strings.Contains(buf.String(), tc.verdict) {
			t.Errorf("%s: compare = %v, want %v with verdict %q:\n%s", tc.name, got, tc.ok, tc.verdict, buf.String())
		}
	}
}
