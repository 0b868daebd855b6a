package sched

// Permutation-testing spaces. A permutation test over P relabelings is
// a flat index space: permutation p is fully determined by its absolute
// index (the relabeling is keyed per index), so any tiling of [0, P) into
// contiguous ranges is valid and every decomposition merges to the same
// hit counts. The source below gives permutation jobs the same tiling,
// sharding, and lease machinery the search spaces use.

// Permutations returns the tile source over a permutation index space:
// rank p is the p-th phenotype relabeling, tiled for the given consumer
// count. A tile's range is the half-open permutation interval the
// consumer evaluates with permtest.KAllRange; per-index seeding makes
// the union of any shard partition bit-exact with the unsharded run.
func Permutations(count, consumers int) Source {
	if count < 0 {
		count = 0
	}
	return Flat(int64(count), consumers)
}
