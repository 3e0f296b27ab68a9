// Command perflab is the repository's benchmark: five seeded serving
// workloads driven over loopback HTTP by two closed-loop clients, answers
// verified against a LinearScan oracle, end-to-end metrics as medians over
// interleaved rounds, and a traced run that times every layer's exported
// entry points from outside. See README.md.
//
//	go -C perflab run .                               the whole lab (~4 min): results.json, trace.json
//	go -C perflab run . -compare a.json b.json        judge run b against run a
//	bash perflab/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                  one workload, one JSON line (BENCHMARK.json's command)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print one JSON result line (the BENCHMARK.json contract); empty runs the whole lab")
		seed     = flag.Int64("seed", 1, "seed for datasets, query pools, draw order and the write stream")
		seconds  = flag.Float64("seconds", 0, "with -workload: total measured time, split into the rounds")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the ladder too and prints the per-layer metrics")
		out      = flag.String("out", "out", "directory for results.json, trace.json and scratch files")
		smoke    = flag.Bool("smoke", false, "tiny scale (n=2000, one 300 ms round, 32-query ladder): exercises the pipeline, measures nothing")
		cmp      = flag.Bool("compare", false, "compare two results.json files given as arguments: a.json b.json")
	)
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files: a.json b.json"))
		}
		a, err := loadResults(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := loadResults(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !compare(os.Stdout, a, b) {
			os.Exit(1)
		}
		return
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	ctx := context.Background()
	if *workload != "" {
		if *seconds > 0 {
			sc = sc.forSeconds(*seconds)
		}
		line, ok, err := runOne(ctx, *workload, *seed, sc, *trace == 1, *out)
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
		if !ok {
			os.Exit(1)
		}
		return
	}
	res, err := runLab(ctx, *seed, sc, *out, os.Stderr)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	for _, wr := range res.Workloads {
		if wr.Failed > 0 {
			fatal(fmt.Errorf("%s: %d of %d operations failed: %s", wr.Name, wr.Failed, wr.Ops, wr.FirstError))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perflab:", err)
	os.Exit(1)
}

// forSeconds fits the rounds of a single-workload run into the measured
// time the caller asked for: the same number of rounds, shorter windows, a
// shorter warm-up and ladder.
func (sc scale) forSeconds(seconds float64) scale {
	sc.Window = time.Duration(seconds / float64(sc.Rounds) * float64(time.Second))
	sc.Warmup = min(sc.Warmup, time.Second)
	sc.LadderQ = min(sc.LadderQ, 48)
	return sc
}

func genStores(seed int64, sc scale, names ...string) (map[string]*store, error) {
	stores := map[string]*store{}
	for _, name := range names {
		st, err := genStore(seed, name, sc)
		if err != nil {
			return nil, err
		}
		stores[name] = st
	}
	return stores, nil
}

// workDir makes the run's private scratch directory under out.
func workDir(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(out)
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(abs, "work-")
}

// measure runs the rounds of the given sessions interleaved — every
// workload's first window, then every workload's second, and so on — after
// one gate and one discarded warm-up each. Back-to-back blocks of one
// workload drifted by up to 19% on the shared build machine; interleaved
// repetitions stayed within 5%.
func measure(ctx context.Context, sessions []*session, sc scale, log io.Writer) []workloadResult {
	for _, s := range sessions {
		start := time.Now()
		s.gate(ctx)
		s.warmup(ctx)
		fmt.Fprintf(log, "perflab: %s: correctness gate (%d queries) and warm-up took %.1fs\n", s.def.Name, len(s.truth.qs), time.Since(start).Seconds())
	}
	for r := 0; r < sc.Rounds; r++ {
		for _, s := range sessions {
			s.round(ctx)
			fmt.Fprintf(log, "perflab: round %d/%d %s: %d queries in %.2fs\n", r+1, sc.Rounds, s.def.Name, s.rounds[r].queries, s.rounds[r].seconds)
		}
	}
	out := make([]workloadResult, len(sessions))
	for i, s := range sessions {
		after, err := s.cl[0].c.Stats(ctx)
		if err != nil {
			s.ops++
			s.fail(fmt.Errorf("%s: GET /v1/stats: %w", s.def.Name, err))
		}
		out[i] = s.result(after)
	}
	return out
}

// runLab is the whole benchmark: all five workloads, then the traced run.
func runLab(ctx context.Context, seed int64, sc scale, out string, log io.Writer) (*results, error) {
	start := time.Now()
	work, err := workDir(out)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	res := &results{Meta: newMeta(seed, sc)}
	stores, err := genStores(seed, sc, "S1", "S2", "S3")
	if err != nil {
		return nil, err
	}
	var sessions []*session
	closeAll := func() error {
		var first error
		for _, s := range sessions {
			if err := s.close(); err != nil && first == nil {
				first = err
			}
		}
		sessions = nil
		return first
	}
	defer closeAll()
	for i := range workloadDefs {
		def := &workloadDefs[i]
		fmt.Fprintf(log, "perflab: %s: oracle and %d set-ups\n", def.Name, sc.Setups)
		dir, err := os.MkdirTemp(work, def.Name+"-")
		if err != nil {
			return nil, err
		}
		s, err := openSession(ctx, def, seed, sc, stores[def.Store], dir)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, s)
	}
	res.Workloads = measure(ctx, sessions, sc, log)
	if err := closeAll(); err != nil {
		return nil, err
	}

	fmt.Fprintf(log, "perflab: traced run (%d queries per rung)\n", sc.LadderQ)
	lad, err := runLadders(ctx, seed, sc, stores, work)
	if err != nil {
		return nil, err
	}
	res.Layers, res.Ladders = lad.layers, lad.tables
	for i := range res.Workloads {
		res.Workloads[i].setTraceShares(lad)
	}
	res.Meta.WallS = time.Since(start).Seconds()
	if err := writeJSON(filepath.Join(out, "results.json"), res); err != nil {
		return nil, err
	}
	return res, writeTrace(filepath.Join(out, "trace.json"), lad.spans)
}

// jsonMetric is one metric of the contract's result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload and renders the contract's result line: the
// end-to-end metrics, or with traced set the per-layer metrics (which costs
// the ladder over all three stores on top of the workload's own rounds).
func runOne(ctx context.Context, name string, seed int64, sc scale, traced bool, out string) (line string, ok bool, err error) {
	def := workloadByName(name)
	if def == nil {
		return "", false, fmt.Errorf("unknown workload %q", name)
	}
	work, err := workDir(out)
	if err != nil {
		return "", false, err
	}
	defer os.RemoveAll(work)
	stores, err := genStores(seed, sc, def.Store)
	if err != nil {
		return "", false, err
	}
	dir, err := os.MkdirTemp(work, def.Name+"-")
	if err != nil {
		return "", false, err
	}
	s, err := openSession(ctx, def, seed, sc, stores[def.Store], dir)
	if err != nil {
		return "", false, err
	}
	wr := measure(ctx, []*session{s}, sc, os.Stderr)[0]
	if err := s.close(); err != nil {
		return "", false, err
	}
	if wr.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perflab: %s: %d of %d operations failed: %s\n", wr.Name, wr.Failed, wr.Ops, wr.FirstError)
	}

	metrics := map[string]jsonMetric{}
	if traced {
		for _, name := range []string{"S1", "S2", "S3"} {
			if stores[name] == nil {
				if stores[name], err = genStore(seed, name, sc); err != nil {
					return "", false, err
				}
			}
		}
		lad, err := runLadders(ctx, seed, sc, stores, work)
		if err != nil {
			return "", false, err
		}
		wr.setTraceShares(lad)
		for _, def := range allPerLayer() {
			v, have := lad.layers[def.Name]
			if def.PerRun {
				v, have = wr.Layers[def.Name]
			}
			if !have {
				return "", false, fmt.Errorf("per-layer metric %s was not measured", def.Name)
			}
			metrics[def.Name] = jsonMetric{v, def.Unit}
		}
		if err := writeTrace(filepath.Join(out, "trace.json"), lad.spans); err != nil {
			return "", false, err
		}
	} else {
		for _, def := range endToEnd {
			metrics[def.Name] = jsonMetric{wr.EndToEnd[def.Name].Value, def.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{wr.Failed == 0, wr.Ops, wr.Failed, metrics})
	return string(b), wr.Failed == 0, err
}
