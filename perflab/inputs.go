package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"time"

	"distperm/internal/dataset"
	"distperm/internal/metric"
	"distperm/internal/sisap"
	"distperm/pkg/distperm"
)

// Fixed shape of the benchmark. These are part of the workload definitions,
// not tunables: later issues compare numbers across commits, which only
// means something while these stay put.
const (
	dims        = 6
	clusters    = 32
	clusterStd  = 0.05
	sitesK      = 12   // distperm sites per index
	knnK        = 10   // neighbours per query
	nprobe      = 4    // approx-mmap probe width
	batchSize   = 64   // queries per batch64-uniform request
	queryNoise  = 0.01 // σ of the noise that makes every query distinct
	shardCount  = 4
	rebuildAt   = 128 // mixed-rw-sharded RebuildThreshold
	writeEvery  = 10  // every 10th mixed op is a write (10%)
	walInterval = 50 * time.Millisecond
	clients     = 2 // closed-loop client goroutines, one connection each
)

// scale sizes one run. The full scale is the benchmark; smoke exists so the
// test can drive the whole pipeline in seconds.
type scale struct {
	Name       string
	N1, N2, N3 int // points in S1 (clustered), S2 (uniform), S3 (clustered)
	Verify     int // verification-set size per workload
	ExactProbe int // approx-mmap queries re-sent at nprobe = all buckets
	Pool       int // cache-hot query pool
	LadderQ    int // queries per rung of the traced run
	Setups     int // fresh set-ups per workload behind setup_s
	Rounds     int
	Window     time.Duration
	Warmup     time.Duration
}

var (
	fullScale = scale{Name: "full", N1: 200000, N2: 50000, N3: 50000,
		Verify: 512, ExactProbe: 32, Pool: 2048, LadderQ: 256, Setups: 9,
		Rounds: 5, Window: 5 * time.Second, Warmup: 2 * time.Second}
	smokeScale = scale{Name: "smoke", N1: 2000, N2: 2000, N3: 2000,
		Verify: 64, ExactProbe: 8, Pool: 128, LadderQ: 32, Setups: 1,
		Rounds: 1, Window: 300 * time.Millisecond, Warmup: 50 * time.Millisecond}
)

// subseed derives an independent stream seed from the run seed and a label,
// so adding a stream never shifts the numbers another stream draws.
func subseed(seed int64, label string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(label))
	return int64(h.Sum64() >> 1)
}

func rngFor(seed int64, label string) *rand.Rand {
	return rand.New(rand.NewSource(subseed(seed, label)))
}

// store is one seeded dataset under L2.
type store struct {
	db *distperm.DB
}

func (s *store) points() []metric.Point { return s.db.Points }

// shapeSeed fixes what is part of a workload's definition rather than a
// draw from it: where the cluster centres lie, which cluster each point ID
// belongs to, which point IDs the index takes as sites, and where those
// twelve site points sit. Everything else — every other coordinate of every
// point — is drawn from the run seed. Were the shape drawn from the seed
// too, each seed would be a different workload: the permutation structure
// of clustered data hangs on where the sites fall, distinct rows moved by
// 25% and approx-mmap's latency by 50% from one seed to the next, and no
// bound could have told a regression from a reseed.
const shapeSeed = 20080407

// clustered draws n points from the fixed cluster skeleton of store name:
// the same distribution as dataset.ClusteredVectors. pinned IDs take their
// noise from the shape, the rest from the run seed.
func clustered(seed int64, name string, n int, pinned map[int]bool) []metric.Point {
	shape := rngFor(shapeSeed, "shape/"+name)
	centres := dataset.UniformVectors(shape, clusters, dims)
	rng := rngFor(seed, "data/"+name)
	pts := make([]metric.Point, n)
	for i := range pts {
		centre := centres[shape.Intn(clusters)].(metric.Vector)
		noise := rng
		if pinned[i] {
			noise = rngFor(shapeSeed, "site/"+name+"/"+strconv.Itoa(i))
		}
		v := make(metric.Vector, dims)
		for j := range v {
			v[j] = centre[j] + clusterStd*noise.NormFloat64()
		}
		pts[i] = v
	}
	return pts
}

// siteIDs returns the point IDs that indexSpec makes sites of when the
// index over an n-point store is first built (sharded four ways for S3).
// The build registry draws them from Spec.Seed and n alone, so building
// over n copies of the origin finds them without knowing the data.
func siteIDs(n int, sharded bool) (map[int]bool, error) {
	origin := make(metric.Vector, dims)
	pts := make([]metric.Point, n)
	for i := range pts {
		pts[i] = origin
	}
	db := sisap.NewDB(distperm.L2, pts)
	ids := map[int]bool{}
	if !sharded {
		idx, err := distperm.Build(db, indexSpec())
		if err != nil {
			return nil, err
		}
		for _, id := range idx.(*distperm.PermIndex).SiteIDs() {
			ids[id] = true
		}
		return ids, nil
	}
	sx, err := distperm.BuildSharded(db, indexSpec(), shardCount, distperm.RoundRobin{})
	if err != nil {
		return nil, err
	}
	for s := 0; s < sx.NumShards(); s++ {
		for _, local := range sx.Shard(s).(*distperm.PermIndex).SiteIDs() {
			ids[sx.Part(s)[local]] = true
		}
	}
	return ids, nil
}

// genStore builds S1, S2 or S3 for the seed.
func genStore(seed int64, name string, sc scale) (*store, error) {
	var pts []metric.Point
	switch name {
	case "S1", "S3":
		n := sc.N1
		if name == "S3" {
			n = sc.N3
		}
		pinned, err := siteIDs(n, name == "S3")
		if err != nil {
			return nil, err
		}
		pts = clustered(seed, name, n, pinned)
	case "S2":
		pts = dataset.UniformVectors(rngFor(seed, "data/"+name), sc.N2, dims)
	default:
		return nil, fmt.Errorf("perflab: unknown store %q", name)
	}
	return &store{db: sisap.NewDB(distperm.L2, pts)}, nil
}

// indexSpec is the one index every workload serves: distperm, 12 sites,
// Footrule ordering, the site IDs fixed with the rest of the shape. (A
// rebuild on mixed-rw-sharded draws its sites afresh from the same spec
// over the points then live.)
func indexSpec() distperm.Spec {
	return distperm.Spec{Index: "distperm", K: sitesK, PermDist: distperm.Footrule, Seed: shapeSeed}
}

// noisy returns a data point plus N(0, queryNoise) per coordinate: close
// enough to the data to be a realistic query, never equal to an earlier one.
func noisy(rng *rand.Rand, pts []metric.Point) metric.Vector {
	src := pts[rng.Intn(len(pts))].(metric.Vector)
	v := make(metric.Vector, len(src))
	for i, x := range src {
		v[i] = x + queryNoise*rng.NormFloat64()
	}
	return v
}

// queries draws n distinct queries for a labelled stream.
func queries(seed int64, label string, pts []metric.Point, n int) []metric.Point {
	rng := rngFor(seed, label)
	out := make([]metric.Point, n)
	for i := range out {
		out[i] = noisy(rng, pts)
	}
	return out
}

type opKind uint8

const (
	opKNN      opKind = iota // single exact kNN of q
	opApprox                 // single approximate kNN of q
	opBatch                  // one request of batchSize exact kNN queries
	opPool                   // single exact kNN of pool entry id (cache-hot)
	opInsert                 // insert q
	opDelete                 // delete base point id
	opReadback               // exact kNN of the point the previous op inserted
)

// op is one generated request. Everything a request needs is here; the
// serving code sees nothing else of the seed.
type op struct {
	kind opKind
	q    metric.Point
	qs   []metric.Point
	id   int
}

func (o op) isWrite() bool { return o.kind == opInsert || o.kind == opDelete }

// appendBytes serialises the op, bit-exact, for the replay test.
func (o op) appendBytes(b []byte) []byte {
	b = append(b, byte(o.kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(o.id))
	vec := func(p metric.Point) {
		for _, x := range p.(metric.Vector) {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	if o.q != nil {
		vec(o.q)
	}
	for _, q := range o.qs {
		vec(q)
	}
	return b
}

// generator is one client's request stream for one workload.
type generator struct {
	workload string
	rng      *rand.Rand
	pts      []metric.Point
	pool     []metric.Point // cache-hot
	n        int            // ops produced so far
	// mixed-rw-sharded: base IDs this client may delete (a seeded
	// permutation, split between clients so no ID is ever deleted twice),
	// and the point awaiting its read-your-writes check.
	victims  []int
	writes   int
	readback metric.Point
}

// newGenerator seeds client c's stream for workload w over the store's
// points. pool is the cache-hot query pool (nil elsewhere).
func newGenerator(seed int64, w string, c int, pts, pool []metric.Point) *generator {
	g := &generator{workload: w, pts: pts, pool: pool}
	g.rng = rngFor(seed, "traffic/"+w+"/"+string(rune('0'+c)))
	if w == "mixed-rw-sharded" {
		perm := rngFor(seed, "victims").Perm(len(pts))
		for i := c; i < len(perm); i += clients {
			g.victims = append(g.victims, perm[i])
		}
	}
	return g
}

func (g *generator) next() op {
	g.n++
	switch g.workload {
	case "exact-cold":
		return op{kind: opKNN, q: noisy(g.rng, g.pts)}
	case "approx-mmap":
		return op{kind: opApprox, q: noisy(g.rng, g.pts)}
	case "batch64-uniform":
		qs := make([]metric.Point, batchSize)
		for i := range qs {
			qs[i] = noisy(g.rng, g.pts)
		}
		return op{kind: opBatch, qs: qs}
	case "cache-hot":
		id := g.rng.Intn(len(g.pool))
		return op{kind: opPool, q: g.pool[id], id: id}
	case "mixed-rw-sharded":
		if g.readback != nil {
			q := g.readback
			g.readback = nil
			return op{kind: opReadback, q: q}
		}
		if g.n%writeEvery == 0 && g.writes/2 < len(g.victims) {
			g.writes++
			if g.writes%2 == 1 {
				p := noisy(g.rng, g.pts)
				g.readback = p
				return op{kind: opInsert, q: p}
			}
			return op{kind: opDelete, id: g.victims[g.writes/2-1]}
		}
		return op{kind: opKNN, q: noisy(g.rng, g.pts)}
	}
	panic("perflab: unknown workload " + g.workload)
}
