package block

import "repro/internal/obs"

// Metrics of the columns blocking keeps in the sets' column stores; hits and
// misses are labeled by derivation and indexed by colKind. The family names
// predate the set-owned store: the benchmark and the CI smoke read them.
var (
	colNames = [...]string{colTokens: "tokens", colNorm: "norm", colIndex: "index"}

	blockHits, blockMisses [len(colNames)]*obs.Counter

	blockInvalidations = obs.Default.Counter("moma_blockcache_invalidations_total",
		"Blocking columns dropped because the object set's version moved.")
)

func init() {
	for kind, name := range colNames {
		blockHits[kind] = obs.Default.Counter("moma_blockcache_hits_total",
			"Blocking-column fetches served from the set's store, by derivation.", `col="`+name+`"`)
		blockMisses[kind] = obs.Default.Counter("moma_blockcache_misses_total",
			"Blocking-column fetches that built the column, by derivation.", `col="`+name+`"`)
	}
}
