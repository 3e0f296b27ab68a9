package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"distperm/pkg/dpserver"
)

// stat is one end-to-end figure: the median over rounds with the rounds it
// came from. Pooled marks a percentile taken over all rounds' samples at
// once because single rounds held too few.
type stat struct {
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Unit    string    `json:"unit"`
	Rounds  []float64 `json:"rounds"`
	Samples []int     `json:"samples"`
	Pooled  bool      `json:"pooled,omitempty"`
}

func newStat(unit string, rounds []float64, samples []int) stat {
	s := stat{Unit: unit, Rounds: rounds, Samples: samples, Value: median(rounds), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range rounds {
		s.Min, s.Max = math.Min(s.Min, v), math.Max(s.Max, v)
	}
	return s
}

func constStat(unit string, v float64, samples int) stat {
	return newStat(unit, []float64{v}, []int{samples})
}

type workloadResult struct {
	Name       string             `json:"name"`
	Why        string             `json:"why"`
	Ops        int64              `json:"ops"`
	Failed     int64              `json:"failed"`
	FirstError string             `json:"first_error,omitempty"`
	EndToEnd   map[string]stat    `json:"end_to_end"`
	Layers     map[string]float64 `json:"layers"`
	// p50 is the median latency under two clients, which
	// trace.residual_share holds the ladder's sequential figure against.
	p50 float64
}

type meta struct {
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Scale      string  `json:"scale"`
	Clients    int     `json:"clients"`
	Rounds     int     `json:"rounds"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	LadderQ    int     `json:"ladder_queries"`
	Started    string  `json:"started"`
	WallS      float64 `json:"wall_s"`
}

type results struct {
	Meta      meta               `json:"meta"`
	Workloads []workloadResult   `json:"workloads"`
	Layers    map[string]float64 `json:"layers"`
	Ladders   []ladderTable      `json:"ladders"`
}

func newMeta(seed int64, sc scale) meta {
	return meta{
		Seed: seed, Commit: commit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale: sc.Name, Clients: clients, Rounds: sc.Rounds,
		WindowS: sc.Window.Seconds(), WarmupS: sc.Warmup.Seconds(), LadderQ: sc.LadderQ,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// commit reads the revision the binary was built from, when the build
// stamped one (a plain directory that is not a git checkout stamps none).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// procSnapshot is the process-level state a round is bracketed by.
type procSnapshot struct {
	cpuMs                float64
	mallocs, bytes, gcNs uint64
	rssPeakMB            float64
}

func readProc() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, rss := rusage()
	return procSnapshot{cpuMs: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcNs: ms.PauseTotalNs, rssPeakMB: rss}
}

func (a *procSnapshot) addDelta(before, after procSnapshot) {
	a.cpuMs += after.cpuMs - before.cpuMs
	a.mallocs += after.mallocs - before.mallocs
	a.bytes += after.bytes - before.bytes
	a.gcNs += after.gcNs - before.gcNs
	a.rssPeakMB = after.rssPeakMB
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tail is the per-round q-quantile when every round holds minTailSamples,
// otherwise the quantile of all rounds pooled.
func tail(unit string, rounds [][]float64, q float64) stat {
	var per []float64
	var counts []int
	var pool []float64
	enough := len(rounds) > 0
	for _, r := range rounds {
		enough = enough && len(r) >= minTailSamples
		per = append(per, percentile(r, q))
		counts = append(counts, len(r))
		pool = append(pool, r...)
	}
	if enough {
		return newStat(unit, per, counts)
	}
	sort.Float64s(pool)
	s := constStat(unit, percentile(pool, q), len(pool))
	s.Pooled = true
	return s
}

// result folds the session's rounds into the workload's figures. after is
// the /v1/stats scrape taken once the rounds are over.
func (s *session) result(after dpserver.StatsResponse) workloadResult {
	r := workloadResult{Name: s.def.Name, Why: s.def.Why, Ops: s.ops, Failed: s.failed,
		EndToEnd: map[string]stat{}, Layers: map[string]float64{}}
	if s.firstErr != nil {
		r.FirstError = s.firstErr.Error()
	}
	var qps, p50, wp50 []float64
	var reads, writes [][]float64
	var nReads, nWrites []int
	queries := 0.0
	for _, rd := range s.rounds {
		qps = append(qps, float64(rd.queries)/rd.seconds)
		p50 = append(p50, percentile(rd.readMs, 0.50))
		wp50 = append(wp50, percentile(rd.writeMs, 0.50))
		reads, writes = append(reads, rd.readMs), append(writes, rd.writeMs)
		nReads, nWrites = append(nReads, len(rd.readMs)), append(nWrites, len(rd.writeMs))
		queries += float64(rd.queries)
	}
	setupSamples := make([]int, len(s.setups))
	for i := range setupSamples {
		setupSamples[i] = 1
	}
	r.EndToEnd["setup_s"] = newStat("s", s.setups, setupSamples)
	r.EndToEnd["qps"] = newStat("1/s", qps, nReads)
	r.EndToEnd["p50_ms"] = newStat("ms", p50, nReads)
	r.EndToEnd["p95_ms"] = tail("ms", reads, 0.95)
	r.EndToEnd["recall_at_10"] = constStat("ratio", s.recall, len(s.truth.qs))
	r.EndToEnd["index_bits_per_point"] = constStat("bit", s.bitsPerPt, 1)
	r.p50 = r.EndToEnd["p50_ms"].Value

	nw := 0
	for _, n := range nWrites {
		nw += n
	}
	if nw > 0 {
		r.EndToEnd["write_p50_ms"] = newStat("ms", wp50, nWrites)
		r.EndToEnd["write_p95_ms"] = tail("ms", writes, 0.95)
	}
	for _, def := range demoted {
		r.Layers[def.Name] = r.EndToEnd[def.Name].Value // 0 where the workload sends no writes
	}

	b, a := s.statsBefore, after
	d := func(x, y int64) float64 { return float64(y - x) }
	r.Layers["cache.hit_ratio"] = ratio(d(b.Server.CacheHits, a.Server.CacheHits),
		d(b.Server.CacheHits+b.Server.CacheMisses, a.Server.CacheHits+a.Server.CacheMisses))
	r.Layers["cache.evictions_per_query"] = ratio(d(b.Server.CacheEvictions, a.Server.CacheEvictions), d(b.Server.SingleQueries, a.Server.SingleQueries))
	r.Layers["cache.invalidations_per_write"] = ratio(d(b.Server.CacheInvalidations, a.Server.CacheInvalidations),
		d(b.Server.Inserts+b.Server.Deletes, a.Server.Inserts+a.Server.Deletes))
	r.Layers["coalescer.mean_fill"] = ratio(d(b.Server.CoalescedQueries, a.Server.CoalescedQueries), d(b.Server.CoalescedBatches, a.Server.CoalescedBatches))
	r.Layers["engine.batched_share"] = ratio(d(b.Engine.BatchedQueries, a.Engine.BatchedQueries), d(b.Engine.Queries, a.Engine.Queries))
	r.Layers["engine.mean_evals"] = ratio(d(b.Engine.DistanceEvals, a.Engine.DistanceEvals), d(b.Engine.Queries, a.Engine.Queries))
	r.Layers["mutable.rebuilds"], r.Layers["wal.fsyncs"] = 0, 0
	if a.Mutation != nil && b.Mutation != nil {
		r.Layers["mutable.rebuilds"] = d(b.Mutation.Rebuilds, a.Mutation.Rebuilds)
	}
	if a.WAL != nil && b.WAL != nil {
		r.Layers["wal.fsyncs"] = float64(a.WAL.FsyncCount - b.WAL.FsyncCount)
	}
	p := s.proc
	r.Layers["proc.cpu_ms_per_query"] = ratio(p.cpuMs, queries)
	r.Layers["proc.allocs_per_query"] = ratio(float64(p.mallocs), queries)
	r.Layers["proc.alloc_bytes_per_query"] = ratio(float64(p.bytes), queries)
	r.Layers["proc.gc_pause_ms"] = float64(p.gcNs) / 1e6
	r.Layers["proc.rss_peak_mb"] = p.rssPeakMB
	return r
}

// setTraceShares fills the two trace.* figures from the ladder's sequential
// outermost rung for this workload's request kind.
func (r *workloadResult) setTraceShares(lad *ladderOut) {
	o := lad.outer[r.Name]
	r.Layers["trace.overhead_share"] = ratio(o.tracedUs-o.untracedUs, o.untracedUs)
	r.Layers["trace.residual_share"] = ratio(r.p50*1e3-o.tracedUs, r.p50*1e3)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fnum(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v) && a < 1e9:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// print writes the human-readable report: run header, the end-to-end table,
// the ladders with self times, and the per-layer table.
func (res *results) print(w io.Writer) {
	m := res.Meta
	fmt.Fprintf(w, "perflab  seed=%d commit=%s %s nproc=%d GOMAXPROCS=%d scale=%s\n", m.Seed, m.Commit, m.GoVersion, m.NProc, m.GOMAXPROCS, m.Scale)
	fmt.Fprintf(w, "protocol %d closed-loop clients on %d connections; %d rounds x %.1fs per workload, interleaved; warm-up %.1fs; medians over rounds\n\n",
		m.Clients, m.Clients, m.Rounds, m.WindowS, m.WarmupS)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tMETRIC\tMEDIAN\tMIN\tMAX\tUNIT\tSAMPLES/ROUND")
	for _, wr := range res.Workloads {
		for _, def := range labTable() {
			st, ok := wr.EndToEnd[def.Name]
			if !ok {
				continue
			}
			samples := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(st.Samples)), ","), "[]")
			if st.Pooled {
				samples += " (pooled over rounds)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", wr.Name, def.Name, fnum(st.Value), fnum(st.Min), fnum(st.Max), st.Unit, samples)
		}
		fmt.Fprintf(tw, "%s\tops\t%d\t\t\tcount\tfailed=%d\n", wr.Name, wr.Ops, wr.Failed)
		if wr.FirstError != "" {
			fmt.Fprintf(tw, "%s\tfirst error\t%s\n", wr.Name, wr.FirstError)
		}
	}
	tw.Flush()

	for _, lt := range res.Ladders {
		fmt.Fprintf(w, "\nladder %s (%d sequential calls per rung, one goroutine)\n", lt.Name, lt.Calls)
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "RUNG\tENTRY POINT\tMEDIAN us\tSELF us\tSHARE")
		for i, rg := range lt.Rungs {
			fmt.Fprintf(tw, "%s%s\t%s\t%s\t%s\t%.1f%%\n", strings.Repeat(" ", i), rg.Name, rg.Entry, fnum(rg.MedianUs), fnum(rg.SelfUs), 100*ratio(rg.SelfUs, lt.Rungs[0].MedianUs))
		}
		tw.Flush()
	}

	fmt.Fprintln(w, "\nper-layer metrics (ladder)")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "LAYER\tMETRIC\tVALUE\tUNIT\tSHOULD MOVE")
	for _, def := range perLayer {
		if def.PerRun {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", def.Layer, def.Name, fnum(res.Layers[def.Name]), def.Unit, def.Moves)
	}
	tw.Flush()

	fmt.Fprintln(w, "\nper-layer metrics (per workload, from its own rounds)")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "METRIC\tUNIT")
	for _, wr := range res.Workloads {
		fmt.Fprintf(tw, "\t%s", wr.Name)
	}
	fmt.Fprintln(tw)
	for _, def := range allPerLayer() {
		if !def.PerRun {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s", def.Name, def.Unit)
		for _, wr := range res.Workloads {
			fmt.Fprintf(tw, "\t%s", fnum(wr.Layers[def.Name]))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// compare prints, per workload and end-to-end metric, both medians, the
// relative change in the worse direction and the lab bound, and returns
// false when any pair is worse or b fails a larger share of its operations.
// A pair whose medians differ by more than the bound while their round
// ranges overlap is unresolved, not worse.
func compare(w io.Writer, a, b *results) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tMETRIC\tA\tB\tWORSE BY\tBOUND\tVERDICT")
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	for _, wa := range a.Workloads {
		wb, found := byName[wa.Name]
		if !found {
			fmt.Fprintf(tw, "%s\t\t\t\t\t\tmissing in B\n", wa.Name)
			ok = false
			continue
		}
		for _, def := range labTable() {
			sa, ina := wa.EndToEnd[def.Name]
			sb, inb := wb.EndToEnd[def.Name]
			if !ina && !inb {
				continue
			}
			if ina != inb {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\tmissing on one side\n", wa.Name, def.Name)
				ok = false
				continue
			}
			// worse is the relative change of the median in the direction
			// that counts as a regression.
			worse := (sb.Value - sa.Value) / sa.Value
			overlap := sb.Min <= sa.Max && sa.Min <= sb.Max
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > def.Lab && overlap && len(sa.Rounds) > 1:
				verdict = "unresolved"
			case worse > def.Lab:
				verdict = "worse"
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.1f%%\t%s\n", wa.Name, def.Name, fnum(sa.Value), fnum(sb.Value), 100*worse, 100*def.Lab, verdict)
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Ops)), ratio(float64(wb.Failed), float64(wb.Ops))
		verdict := "ok"
		if fb > fa {
			verdict = "worse"
			ok = false
		}
		fmt.Fprintf(tw, "%s\tfailed/ops\t%d/%d\t%d/%d\t\t\t%s\n", wa.Name, wa.Failed, wa.Ops, wb.Failed, wb.Ops, verdict)
	}
	tw.Flush()
	return ok
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
