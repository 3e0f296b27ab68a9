package dataset

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"distperm/internal/metric"
)

// GeneratorNames lists the names Generate accepts, in display order — the
// vector generators first, then the dictionary languages, then the
// remaining SISAP-analogue datasets.
func GeneratorNames() []string {
	names := []string{"uniform", "gauss", "clustered"}
	for _, p := range Languages() {
		names = append(names, strings.ToLower(p.Name))
	}
	return append(names, "listeria", "long", "short", "colors", "nasa")
}

// Generate constructs the named dataset at size n (dimension d for the
// vector generators), drawing randomness from rng — the one seam behind the
// -gen flag of every binary. Language names match case-insensitively.
func Generate(rng *rand.Rand, gen string, n, d int) (*Dataset, error) {
	switch gen {
	case "uniform":
		return UniformDataset(rng, n, d, metric.L2{}), nil
	case "gauss":
		return &Dataset{Name: "gauss", Metric: metric.L2{},
			Points: GaussianVectors(rng, n, d, 0.5, 0.15)}, nil
	case "clustered":
		return &Dataset{Name: "clustered", Metric: metric.L2{},
			Points: ClusteredVectors(rng, n, d, 10, 0.03)}, nil
	case "listeria":
		return GeneSequences(rng.Int63(), n), nil
	case "long":
		return DocumentVectors(rng.Int63(), "long", n, 400, 12, 600), nil
	case "short":
		return DocumentVectors(rng.Int63(), "short", n, 400, 40, 30), nil
	case "colors":
		return ColorHistograms(rng.Int63(), n, 112), nil
	case "nasa":
		return NASAFeatures(rng.Int63(), n, 20, 4), nil
	default:
		for _, p := range Languages() {
			if strings.EqualFold(p.Name, gen) {
				return Dictionary(p, n), nil
			}
		}
		return nil, fmt.Errorf("unknown generator %q (have %s)",
			gen, strings.Join(GeneratorNames(), ", "))
	}
}

// Load resolves the -file / -gen flag pair every binary shares: a non-empty
// file path reads vectors from disk, otherwise gen names a generator.
func Load(rng *rand.Rand, gen, file string, n, d int) (*Dataset, error) {
	if file != "" {
		return ReadVectorFile(file)
	}
	return Generate(rng, gen, n, d)
}

// ReadVectorFile reads whitespace-separated vectors, one per line, into an
// L2 dataset named after the path. Every line must have the same number of
// fields; blank lines are skipped.
func ReadVectorFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pts []metric.Point
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	dims := -1
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if dims == -1 {
			dims = len(fields)
		} else if len(fields) != dims {
			return nil, fmt.Errorf("%s:%d: %d fields, want %d", path, line, len(fields), dims)
		}
		v := make(metric.Vector, len(fields))
		for i, fld := range fields {
			x, err := strconv.ParseFloat(fld, 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, line, err)
			}
			v[i] = x
		}
		pts = append(pts, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("%s: no points", path)
	}
	return &Dataset{Name: path, Metric: metric.L2{}, Points: pts}, nil
}
