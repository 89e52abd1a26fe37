package match

import "repro/internal/obs"

// Engine-side matcher metrics, registered once at package init on the
// process-global registry. Pipeline counts are accumulated in locals and
// flushed once per streamScore call, so the per-pair hot loop carries no
// atomic traffic.
var (
	matchPairsTotal = obs.Default.Counter("moma_match_pairs_total",
		"Candidate pairs streamed into the scoring pipeline.")
	matchKeptTotal = obs.Default.Counter("moma_match_pairs_kept_total",
		"Above-threshold pairs kept by the scoring pipeline.")
	matchPrunedTotal = obs.Default.Counter("moma_match_pairs_pruned_total",
		"Streamed pairs a threshold bound rejected before they were scored in full.")
	matchBatchesTotal = obs.Default.Counter("moma_match_batches_total",
		"Scoring batches dispatched to pipeline workers.")
	matchQueueWait = obs.Default.Histogram("moma_match_queue_wait_seconds",
		"Producer wait enqueueing a scoring batch (all workers busy).", nil)

	// Family names predate the set-owned column store (model.Column).
	profileCacheHits = obs.Default.Counter("moma_profilecache_hits_total",
		"Profile-column fetches served from the set's store.")
	profileCacheMisses = obs.Default.Counter("moma_profilecache_misses_total",
		"Profile-column fetches that built the column.")
	profileCacheInvalidations = obs.Default.Counter("moma_profilecache_invalidations_total",
		"Profile columns dropped because the object set's version moved.")
)
