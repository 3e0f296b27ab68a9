package sisap

import (
	"distperm/internal/metric"
	"distperm/internal/perm"
)

// The oracle of the equivalence tests: what ScanOrder computed before the
// table encoding, kept out of the product files because only tests call it.

// invPermAt reconstructs the stored inverse permutation of point i
// (allocating).
func (x *PermIndex) invPermAt(i int) perm.Permutation {
	return x.table.invAt(int(x.tableIDs[i]))
}

// referenceScanOrder is the pre-table-encoding scan: one permutation-distance
// evaluation per *point* over materialised inverse permutations and a stable
// float64 argsort. Its
// output is byte-identical to ScanOrder by construction (integer keys order
// identically to their float images; counting sort and SliceStable break
// ties the same way).
func (x *PermIndex) referenceScanOrder(q metric.Point) []int {
	qinv := x.permuter.Permutation(q).Inverse()
	keys := make([]float64, x.db.N())
	for i := range keys {
		inv := x.invPermAt(i)
		switch x.dist {
		case Footrule:
			keys[i] = float64(perm.SpearmanFootrule(qinv, inv))
		case KendallTau:
			keys[i] = float64(perm.KendallTau(qinv, inv))
		case SpearmanRho:
			keys[i] = perm.SpearmanRho(qinv, inv)
		default:
			panic("sisap: unknown permutation distance")
		}
	}
	return argsort(keys)
}
