package match

import "repro/internal/obs"

// Engine-side matcher metrics, registered once at package init on the
// process-global registry. The kernel counts in locals and flushes once per
// range of A (blockScore), so the per-candidate loop carries no atomic
// traffic.
var (
	matchPairsTotal = obs.Default.Counter("moma_match_pairs_total",
		"Candidate pairs the match kernel considered.")
	matchKeptTotal = obs.Default.Counter("moma_match_pairs_kept_total",
		"Candidate pairs that reached the threshold and were kept.")
	matchPrunedTotal = obs.Default.Counter("moma_match_pairs_pruned_total",
		"Candidate pairs a threshold bound rejected before they were scored in full: on a set measure's dense filter keys (set size, signature) without reading either profile, or in a bounded merge or a length filter.")

	// Family names predate the set-owned column store (model.Column).
	profileCacheHits = obs.Default.Counter("moma_profilecache_hits_total",
		"Profile-column fetches served from the set's store.")
	profileCacheMisses = obs.Default.Counter("moma_profilecache_misses_total",
		"Profile-column fetches that built the column.")
	profileCacheInvalidations = obs.Default.Counter("moma_profilecache_invalidations_total",
		"Profile columns dropped because the object set's version moved.")
)
