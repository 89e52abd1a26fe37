package live

import "repro/internal/obs"

// Stage indexes of the resolve trace. The candidate probe inside
// block.Index.EachCandidate is fused with scoring (candidates are scored as
// they stream out of the posting merge), so the trace attributes token
// lookup to "block", query profiling to "profile", and the fused
// probe-and-score loop — gathering and sorting postings included — to
// "score".
const (
	stageBlock = iota
	stageProfile
	stageScore
)

// Engine-side resolver metrics, registered once at package init on the
// process-global registry. Record paths are atomic adds (zero-allocation in
// internal/obs), so instrumentation does not disturb the warm resolve path's
// zero-allocation budget (TestResolveAppendZeroAllocs).
var (
	resolveStages = obs.NewStages(obs.Default, "moma_live_resolve",
		"Latency of one online resolution", obs.DefaultSlow,
		"block", "profile", "score")
	resolvesTotal = obs.Default.Counter("moma_live_resolves_total",
		"Online resolutions across all entry points (ResolveAppend and its Resolve wrapper, ResolveSet, AddResolve).")
	resolveCandidates = obs.Default.Counter("moma_live_resolve_candidates_total",
		"Candidates the blocking probe admitted to online resolutions.")
	resolvePruned = obs.Default.Counter("moma_live_resolve_pruned_total",
		"Admitted candidates a threshold bound rejected before they were scored in full: on a set measure's dense filter key (set size, signature) without reading the candidate's profile, or in a bounded merge or a length filter.")
	resolveMatches = obs.Default.Counter("moma_live_resolve_matches_total",
		"Matches at or above threshold returned by online resolutions.")
	addsTotal = obs.Default.Counter("moma_live_adds_total",
		"Instances inserted into resolvers (replaces included).")
	removesTotal = obs.Default.Counter("moma_live_removes_total",
		"Instances tombstoned out of resolvers.")
	compactionsTotal = obs.Default.Counter("moma_live_compactions_total",
		"Slot-array compactions triggered by Remove churn.")
	// instancesLive counts live instances across every resolver in the
	// process. A resolver released without removing its members keeps its
	// contribution — a serving process owns its resolvers for its lifetime,
	// which is the deployment this gauge describes.
	instancesLive = obs.Default.Gauge("moma_live_instances",
		"Live (added and not removed) instances across all resolvers.")
)
