package main

// The metric vocabulary. Three lists:
//
//   - namedE2E: the end-to-end metrics by the names ISSUE 11 fixed, each
//     reported only by the workloads it is defined on;
//   - slots: the six end-to-end metrics of BENCHMARK.json. The driver
//     wants every end-to-end metric from every workload and divides by its
//     median, so workload-specific (or zero) metrics cannot be listed
//     there; each slot is therefore bound, per workload, to one named
//     metric (slotBinding), converted to the slot's unit;
//   - perLayer: the per-layer metrics, printed with --trace 1 (0 on the
//     workloads a metric is not defined on).
//
// TestContractMatchesCatalogue keeps BENCHMARK.json equal to these lists.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // relative worsening that counts as a regression (end-to-end only)
}

// Workload names, fixed by the issue.
const (
	wlBatchPaper  = "batch_paper"
	wlOperators1M = "operators_1m"
	wlServeRead   = "serve_read"
	wlServeMixed  = "serve_mixed"
)

var workloadNames = []string{wlBatchPaper, wlOperators1M, wlServeRead, wlServeMixed}

var workloadWhy = map[string]string{
	wlBatchPaper:  "the paper's tables: sources/index, block, sim, match dominate; mapping/store idle, live/serve unused. t1=paper_run t2=workflows rate=pairs scored/s quality=Table 2 F1",
	wlOperators1M: "1 M-row compose/merge/select, durable put and replay: mapping, par, store only; no sim, block, match, serve. t1=ops_round t2=cold_start rate=rows/s quality=identical outputs",
	wlServeRead:   "selective n=100k resolves over HTTP, 1 client, 1 CPU: engine at most 25% of p50, serve/http dominate. t1=resolve p50 t2=resolve p90 rate=req/s quality=hit share",
	wlServeMixed:  "paper GS set, 70/15/15 resolve/add/remove on a durable store, 1 client, 1 CPU: engine-bound reads beside locked, logged writes. t1=resolve p50 t2=add p50 rate=ops/s quality=hit share",
}

// slots are BENCHMARK.json's end_to_end metrics: per workload, the two times
// and the rate this shared two-core sandbox lets one measure steadily — each
// a calm quartile of a run's repetitions, stated relative to the host's speed
// (hostref.go) — beside set-up, memory and the quality share. A slot's bound
// has to hold the least steady metric bound to it on any workload in the
// host's worst hour, and the driver refuses the benchmark on one breach, so
// times and rates carry the widest bound it allows; README.md, "A/A", has
// the measured spread of every metric.
var slots = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"t1_ms", "ms", "lower", 0.25},
	{"t2_ms", "ms", "lower", 0.25},
	{"rate_per_s", "1/s", "higher", 0.25},
	{"quality_share", "share", "higher", 0.03},
}

// slotBinding names, per workload, the named end-to-end metric behind each
// slot, in the order of slots.
var slotBinding = map[string][]string{
	wlBatchPaper:  {"setup_s", "peak_rss_mb", "paper_run_s", "workflows_s", "pairs_scored_per_s", "table2_f1"},
	wlOperators1M: {"setup_s", "peak_rss_mb", "ops_round_s", "cold_start_s", "rows_per_s", "identical_share"},
	wlServeRead:   {"setup_s", "peak_rss_mb", "resolve_p50_us", "resolve_p90_us", "throughput_rps", "resolve_hit_share"},
	wlServeMixed:  {"setup_s", "peak_rss_mb", "resolve_p50_us", "add_p50_us", "throughput_rps", "resolve_hit_share"},
}

// namedE2E is every named end-to-end metric: the issue's (its add and
// resolve tails as the percentiles a slice supports) and a few more that
// fill slots or split a whole. The ones bound to no slot are reported, not
// gated. Bounds belong to the slots.
var namedE2E = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "paper_run_s", Unit: "s", Better: "lower"},
	{Name: "workflows_s", Unit: "s", Better: "lower"},
	{Name: "table2_f1", Unit: "%", Better: "higher"},
	{Name: "ops_round_s", Unit: "s", Better: "lower"},
	{Name: "persist_s", Unit: "s", Better: "lower"},
	{Name: "cold_start_s", Unit: "s", Better: "lower"},
	{Name: "resolve_p50_us", Unit: "us", Better: "lower"},
	{Name: "resolve_p99_us", Unit: "us", Better: "lower"},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher"},
	{Name: "add_p50_us", Unit: "us", Better: "lower"},
	{Name: "add_p90_us", Unit: "us", Better: "lower"},
	{Name: "resolve_hit_share", Unit: "share", Better: "higher"},
	{Name: "failed_share", Unit: "share", Better: "lower"},

	{Name: "tables_s", Unit: "s", Better: "lower"},
	{Name: "acquire_s", Unit: "s", Better: "lower"},
	{Name: "pairs_scored_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ops_round_100k_s", Unit: "s", Better: "lower"},
	{Name: "rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "identical_share", Unit: "share", Better: "higher"},
	{Name: "resolve_p90_us", Unit: "us", Better: "lower"},
}

// experimentKeys are the 17 experiments of cmd/moma-bench in its order,
// with the per-layer timer each one feeds.
var experimentKeys = []struct{ ID, Metric string }{
	{"Table 1", "experiments.table1_s"},
	{"Table 2", "experiments.table2_s"},
	{"Table 3", "experiments.table3_s"},
	{"Table 4", "experiments.table4_s"},
	{"Table 5", "experiments.table5_s"},
	{"Table 6", "experiments.table6_s"},
	{"Table 7", "experiments.table7_s"},
	{"Table 8", "experiments.table8_s"},
	{"Table 9", "experiments.table9_s"},
	{"Table 10", "experiments.table10_s"},
	{"Figure 8", "experiments.figure8_s"},
	{"Ablation A1", "experiments.a1_s"},
	{"Ablation A2", "experiments.a2_s"},
	{"Ablation A3", "experiments.a3_s"},
	{"Ablation A4", "experiments.a4_s"},
	{"Extension E1", "experiments.e1_s"},
	{"Extension E2", "experiments.e2_s"},
}

// perLayer lists the per-layer metrics in BENCHMARK.json order. Direction
// is informative only: per-layer metrics carry no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	l := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	h := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	out := []metricDef{
		// batch_paper
		l("sources.generate_s", "s"), l("sources.gs_index_s", "s"), l("sources.gs_collect_s", "s"),
		l("index.search_us", "us"), l("index.docs", "count"),
		l("block.title_pairs_s", "s"), l("block.title_pairs_n", "count"), l("block.pairs_per_true_match", "ratio"),
		h("blockcache.hits", "count"), l("blockcache.misses", "count"),
		h("profilecache.hits", "count"), l("profilecache.misses", "count"),
		h("sim.trigram_pairs_per_s", "1/s"), h("sim.tfidf_pairs_per_s", "1/s"),
		l("match.title_cold_s", "s"), l("match.title_warm_s", "s"), l("match.author_cold_s", "s"),
		l("match.year_cold_s", "s"), l("match.nh_s", "s"), l("match.pairs_scored", "count"), l("match.pairs_kept", "count"),
		l("mapping.merge3_s", "s"), l("mapping.compose_path_s", "s"), l("mapping.select_s", "s"), l("eval.compare_s", "s"),
	}
	for _, e := range experimentKeys {
		out = append(out, l(e.Metric, "s"))
	}
	out = append(out,
		l("model.dict_ids", "count"), l("sim.dict_terms", "count"),
		l("go.alloc_mb", "MB"), l("go.gc_pause_ms", "ms"), l("go.num_gc", "count"),
		// operators_1m
		h("mapping.build_rows_per_s", "1/s"),
		l("mapping.compose_1m_s", "s"), l("mapping.merge_1m_s", "s"), l("mapping.bestn_1m_s", "s"), l("mapping.threshold_1m_s", "s"),
		l("mapping.compose_1m_alloc_mb", "MB"), l("mapping.merge_1m_alloc_mb", "MB"),
		l("mapping.compose_100k_s", "s"), l("mapping.merge_100k_s", "s"),
		h("par.compose_speedup", "ratio"), h("par.merge_speedup", "ratio"), h("par.bestn_speedup", "ratio"),
		h("store.put_rows_per_s", "1/s"), h("store.replay_rows_per_s", "1/s"), l("store.wal_bytes_per_row", "B"),
		l("store.compact_s", "s"), l("store.snapshot_bytes", "B"),
		// serve_read and serve_mixed
		l("live.resolve_us", "us"), l("live.resolve_allocs_op", "allocs/op"), l("live.resolve_bytes_op", "B/op"),
		l("live.resolve_share", "share"),
		l("live.stage_block_share", "share"), l("live.stage_profile_share", "share"), l("live.stage_score_share", "share"),
		l("live.candidates_per_resolve", "count"), l("live.matches_per_resolve", "count"), l("live.new_resolver_s", "s"),
		l("serve.resolve_handler_us", "us"), l("serve.resolve_handler_allocs_op", "allocs/op"), l("serve.resolve_handler_bytes_op", "B/op"),
		l("serve.resolve_self_us", "us"), l("serve.took_us_p50", "us"),
		l("http.gap_us", "us"), l("server.cpu_us_per_req", "us"), l("server.alloc_bytes_per_req", "B"), l("server.gc_per_1k_req", "count"),
		l("client.resolve_p99_us", "us"), l("client.overhead_us", "us"),
		h("client.rps_cN", "1/s"), l("client.resolve_p50_us_cN", "us"), l("client.resolve_p99_us_cN", "us"),
		// serve_mixed only
		l("live.add_resolve_us", "us"), l("live.remove_us", "us"),
		l("serve.add_handler_us", "us"), l("serve.add_self_us", "us"),
		l("store.put_delta_us", "us"), l("store.drop_touching_us", "us"),
		l("client.add_p99_us", "us"), l("client.remove_p50_us", "us"), l("client.remove_p99_us", "us"), l("client.add_p50_us_cN", "us"),
		l("store.wal_bytes_per_add", "B"), l("store.wal_records_per_add", "count"),
		l("store.compactions", "count"), l("store.fsyncs", "count"), l("live.compactions", "count"),
		l("serve.restart_s", "s"),
		// every workload
		l("host.alu_ms", "ms"), l("host.mem_ms", "ms"), h("host.factor", "ratio"),
		l("trace.overhead_share", "share"), h("trace.coverage_share", "share"),
	)
	return out
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}
