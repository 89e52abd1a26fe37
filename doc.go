// Package moma is a Go implementation of MOMA, the mapping-based object
// matching system of Thor & Rahm (CIDR 2007).
//
// MOMA solves object matching (entity resolution): identifying the object
// instances in data sources that refer to the same real-world entity. Its
// central abstraction is the instance-level mapping — a set of
// correspondences (a, b, s) between two logical data sources with a
// similarity s in [0,1]. Match workflows combine matcher executions
// (attribute matchers, the neighborhood matcher) with mapping operators
// (merge, compose, selection), re-using mappings kept in a repository.
//
// The package re-exports, under one import, the subsystem names its
// commands and tests call (moma.go); the rest of each subsystem is reached
// through its package under internal/:
//
//	sys := moma.NewSystem()
//	dblp := moma.NewObjectSet(moma.LDS{Source: "DBLP", Type: moma.Publication})
//	acm := moma.NewObjectSet(moma.LDS{Source: "ACM", Type: moma.Publication})
//	// ... fill the sets, then match titles:
//	m := &moma.AttributeMatcher{AttrA: "title", AttrB: "title",
//		Sim: moma.Trigram, Threshold: 0.8}
//	same, err := m.Match(dblp, acm)
//
// Higher-level entry points: System wires the workflow engine and the
// iFuice-style script interpreter together. The engine is the one namespace
// and the one executor of the match process (Figure 3): the mapping
// repository, the results of the steps it ran, and the object sets
// registered by name, which workflows, scripts and System.MappingByName all
// resolve through, step results first, then repository. Workflow values are
// its multi-step match processes, and a script is one too: each of its
// mapping-valued expressions is a step, a top-level $X = … the step
// Cache.X. Every step is named and runs once per engine: its result is held
// with its definition (the object sets' identity and version if it has
// matchers, each matcher's String, its inputs' definitions, operator and
// selections), and a step whose name the engine holds is read, not run, if
// the definitions match — else the run fails naming both. A definition
// cannot see into a Where closure or a custom similarity function's
// captured values; System.Forget lets a step run again. The paper's
// evaluation (internal/experiments) runs its tables as such steps. NhMatch
// is the §4.2 neighborhood matcher. The package's examples run whole match
// processes through these names, each checked against the output it
// prints.
//
// # Similarity profiles
//
// Attribute matchers evaluate their similarity function over O(n·m)
// candidate pairs, but a match input only contains n+m distinct attribute
// values. So a measure is a sim.ProfiledSim, one type with two methods:
// ProfileInto preprocesses one value — normalization, tokenization, hashed
// character n-gram sets, TF-IDF vectors — and appends it as the next slot
// of a profile column (sim.ProfileColumn), taking its working memory from a
// sim.Scratch, and Compare scores two slots (sim.Ref). There is no other
// way to build a profile and no second implementation of a measure: the
// built-in sim.Funcs are Compare over the profiles of their two arguments,
// AttributeMatcher, MultiAttributeMatcher and LiveResolver score every
// configuration through sim.ProfiledOf(Sim), and ProfiledOf is total — a
// sim.Func it does not know (a custom closure, NumericProximity) becomes a
// measure whose profile is the raw value and whose Compare calls the
// function. A sim.Func is the one way a matcher column names its measure; one table in package sim gives each of the 18
// built-ins its name (sim.Lookup, which scripts and tuning read) and its
// measure. TF-IDF cosine is the one measure no sim.Func names, because its
// profiles depend on a corpus: match.TFIDFAttribute builds a corpus from
// its inputs on every match, and a LiveColumn with TFIDF set keeps a
// resident one. Only the built-ins' profile columns are kept in a set's
// column store; corpus-backed and opaque-Func columns build per match.
//
// A column holds what its measure reads and nothing else, in pointer-free
// slabs every slot of the column shares: an n-gram set is its hashes in one
// []uint64 slab, a token set its term IDs in a []uint32 slab, the character
// and token-sequence measures their runes in a []rune slab, a TF-IDF vector
// its weighted terms in a slab of terms with its norm beside, and a slot
// names its part of its slab by a span; a Soundex code, a year or an
// equality measure's string is one entry of a per-slot array. So a resident
// title costs its grams, a span and a filter key — no per-value struct, no
// per-value allocation, nothing for the collector to trace
// (TestProfileColumnResidentBytes). A single value's profile — a query, a
// string form's operand — is a one-slot column, sim.Profile.
//
// A column of profiles (a matcher's per-set column, a resolver's resident
// one) comes from sim.BuildProfileColumn, which splits the values over the
// workers unless the measure interns: it sizes the slab once from the
// values' rune counts, lets each worker fill its own part, and closes the
// parts up in place, so the build never holds a second copy. A resolver's
// Add profiles one value into the slab's tail (ProfileColumn.Append, Set),
// so it never copies the bulk the build sized; a tombstone lets go of its
// payload (Drop), a tail whose payloads were mostly dropped again is
// rewritten alone, and compaction is one rewrite of the slab (Compact). Read paths rebuild pooled one-slot profiles through
// the lookup-only sim.QueryInto, which never grows a term dictionary and,
// for every measure that builds no string (all but EqualFold and Soundex),
// allocates nothing once its buffers are warm. The differential oracle of
// the layout is the per-value profile it replaced, kept in the tests
// (FuzzProfileColumnMatchesReference). A column of
// blocking tokens (a set's token-blocking column, a resolver's members)
// comes the same way from sim.Dict.TokenColumn, which numbers new terms in
// the order a serial walk meets them, and the inverted index over it from
// block.NewIndex; a resolver's Add tokenizes and indexes its one value.
//
// Columns are read-only between builds, so a matcher's workers (GOMAXPROCS
// of them) score them concurrently without locks.
//
// A matcher keeps only the pairs that reach its threshold, so Compare takes
// a floor — the least score its caller still has a use for — and is exact
// at or above it; below it a measure may stop as soon as the score is out of
// reach (the Dice and Jaccard set measures reject on set sizes, then on
// 128-bit set signatures, and abandon the merge of what is left;
// Levenshtein rejects on lengths before its bit-vector kernel runs). No
// Compare profiles or allocates: the character-level and token-sequence
// measures read a slot's runes in place (TestCompareZeroAllocs). The set
// measures' size and signature test reads only a 24-byte filter key per
// profile (sim.Key: length, cardinality, signature), and every profile
// column of a set measure keeps those keys in a dense, pointer-free array
// beside its slab (sim.ProfileColumn.Keys).
// AttributeMatcher passes its threshold; MultiAttributeMatcher and
// LiveResolver share sim.Weighted, which derives each column's floor from
// the weights still to come — fixed for its first column. The
// bounds are exact — results are bit-identical to scoring every pair in
// full, which survives as the oracle of the differential tests — and the
// counters moma_match_pairs_pruned_total and moma_live_resolve_pruned_total
// report how many admitted pairs they cut short; a key reject is counted
// exactly as the Compare it replaces.
//
// # Streaming match pipeline
//
// Candidate generation and scoring are one kernel (match.blockScore) that
// every attribute matcher scores through, and one candidate loop
// (match.Scan: probe → filter → score → keep) that it shares with the live
// resolver: a row (a domain instance, a query) builds its key test once
// (sim.RowFilter, from a table made per match call or resolver), and only
// the candidates whose keys pass it reach a slab. Every block.Blocker is a
// row probe over ordinals that streams A-major — all candidates of one
// domain instance, range ordinals ascending, before any of the next;
// block.PairsEach turns it into id pairs, and Pairs materializes those.
// CrossProduct and TokenBlocking probe as they go; SortedNeighborhood and
// Within (token blocking restricted to the pairs of a mapping) list their
// pairs by row when the probe is built. The kernel builds what a match
// shares once — the probe with its token columns and index over the range
// input (a probe of it counts posting entries per ordinal; nothing is
// sorted), the O(n+m) profile columns keyed by ObjectSet.IndexOf ordinals,
// the key table — cuts the domain ordinals into contiguous ranges of
// near-equal probe cost (par.SplitBy) and runs the rows of each range on one
// goroutine, appending kept correspondences to pointer-free (dom, rng, sim)
// columns. Ranges concatenated in order are the probe's order — no
// hand-off, no sequence number, no sort — and bulk-load into the result
// (mapping.FromColumns). The candidate set, potentially O(n·m) pairs, never
// exists in memory as a whole, and results are bit-identical to scoring the
// materialized pair list, mapping insertion order included, at any worker
// count. The kernel's worker count is GOMAXPROCS; no matcher field or
// engine setting overrides it.
//
// # Online resolution
//
// The live subsystem answers single-record match queries against a resident
// set without re-matching: a LiveResolver registers an ObjectSet once and
// keeps its blocking index, similarity-profile columns with their filter
// keys, and TF-IDF corpora incrementally maintained, so Resolve blocks,
// scores and thresholds one query in time proportional to its candidates —
// and Add/Remove update the resident structures in place. Scoring is
// bit-identical to a batch re-match of the same configuration (blocking
// attributes, columns, weights, threshold): a resolve is one row of the
// batch kernel's candidate loop, so most candidates of a set measure are
// rejected on their dense keys without a profile read.
// ResolveSet resolves a whole query set one query after another and loads
// the matches' (dom, rng, sim) columns into the result in query order, as the
// batch kernel loads its ranges.
//
//	sys.AddObjectSet("ACM.Publication", acm)
//	r, err := sys.RegisterResolver("ACM.Publication", moma.LiveConfig{
//		MinShared: 2, Threshold: 0.8,
//		Columns: []moma.LiveColumn{
//			{QueryAttr: "title", SetAttr: "title", Sim: moma.Trigram},
//		},
//	})
//	matches := r.Resolve(instance) // sub-millisecond on warm indexes
//
// Resolve is ResolveAppend into a fresh slice; ResolveAppend is the one
// resolve entry point, and the serving path calls it with a recycled slice.
// cmd/moma-serve exposes the resolvers registered when the server is
// constructed over an HTTP JSON API (resolve, incremental add/remove with
// same-mapping deltas in the repository, health and metrics endpoints): a
// resolve holds one lock, the resolver's read lock, and a write takes its
// set's mutex, then the resolver's lock, then the store's. cmd/moma-load
// drives it with synthetic query traffic and reports throughput and latency
// percentiles.
// Batch token blocking shares the same structures, and keeps them with the
// data. An ObjectSet keeps its members' attribute values as columns, one
// value column per attribute name read by ordinal (Attr, HasAttr), with no
// instance or map per member; At, Get and Each copy a member out. Every
// ObjectSet also owns one small store of derived columns (model.Column)
// holding its token columns, sort-key columns, ordinal inverted indexes
// and similarity-profile columns under typed keys, each built from those
// value columns. A column is built at most once per set version, so
// matchers sharing inputs stop rebuilding it, and Add, SetAttr or Remove
// on the set drops them all. Only the
// set refers to its store, so a column lives exactly as long as its set and
// matchers over different sets share no lock. The store is bounded per set,
// oldest column first — which contains the one key source that never
// repeats, the fresh corpus a TF-IDF matcher builds per match.
//
// # Columnar ordinal mappings
//
// Mapping tables are columnar: a Mapping stores parallel uint32 ordinal
// columns (domain, range) plus a float64 similarity column, with instance
// IDs interned once in a model.IDDict symbol table — the ID-level
// counterpart of the term dictionary the similarity layer uses. All
// mapping operators run over the integer columns and group rows by
// radix-sorting ordinal keys: compose joins middle ordinals through two
// sorted row lists, merge folds runs of equal packed uint64 pair keys,
// selections cut runs of equal domain or range ordinals, and the
// per-object reads (ForDomain, Touches, RemoveTouching) scan the ordinal
// columns; besides its columns a Mapping holds only a lazily built pair
// index. Matchers emit kept correspondences ordinal-to-ordinal
// (input id columns are interned once per match), evaluation compares
// mappings by integer membership probes, and duplicate clustering
// union-finds over dense ordinal indexes.
//
// There is one ordinal space: every mapping the program builds interns
// through the process-global model.IDs — matcher results, operator
// outputs, workflow intermediates and the mappings a persistent repository
// (store.OpenRepository) replays from disk — so operators never translate,
// and inputs over different dictionaries are a programming error that
// Compose and Merge return and Compare panics on. Ordinals never reach the
// disk format; the WAL serializes id strings, and a reopen decodes them
// straight into ordinals of model.IDs: one intern batch and one bulk load
// per put.
// Delta-heavy WALs fold themselves into fresh snapshots automatically once
// the log outgrows the snapshot (Store.SetAutoCompact configures or
// disables the ratio); a fold that fails leaves the write standing and is
// tried again once the log has grown past the threshold again.
//
// # Parallel mapping operators
//
// The three columnar operators run on a fixed worker count
// (internal/par) with one non-negotiable contract: the output is
// bit-identical at every worker count — same rows, same float64
// similarities, same first-seen insertion order. The worker count is
// GOMAXPROCS. ComposeWorkers, MergeWorkers and BestN.WithWorkers pin it for
// the benchmark's operator workload, which measures the operators at fixed
// widths; nothing else selects a worker count.
// Differential tests (internal/mapping/ref_test.go, parallel_test.go) hold
// the operators to eps-0 equality against sequential reference
// implementations at workers 1, 3 and 8.
//
// Determinism comes from a stable sort whose result does not depend on how
// the rows are chunked. Each operator groups by sorting (key, row) pairs
// with par.SortKeyRows, a stable LSD radix sort: compose sorts both sides
// of its join by middle ordinal and then its paths — numbered in the order
// the sequential join meets them — by packed (domain, range) pair; merge
// sorts all inputs' rows, numbered in input order, by pair key; selections
// sort row indices by domain or range ordinal. A stable sort has exactly
// one result, so every run of equal keys lists its paths, records or rows
// in sequential order whatever the worker count. Float addition is not
// associative, and each run folds on one worker in that order, so the sums
// are bit-for-bit the sequential ones. Each fold marks its result at the
// position of the run's first path, record or row, and one pass in
// position order gathers the output: first-seen order, with no second
// sort to restore it. Nothing is sized by a dictionary, only by rows, and
// the inputs' pair indexes stay unbuilt.
//
// A merge followed by a threshold t is one fold, mapping.MergeAbove (Merge
// is its t = 0 case); the workflow engine hands a merge step's leading
// Threshold to it. From the combiner and t it derives the driver set, the
// inputs every row at or above t appears in at least one of: a row missing
// from all of them scores at most the combiner with every other input
// present at similarity 1, and inputs are left out while that exact bound
// is strictly below t. Table 2's Weighted-0 3:1:2 at 0.8 is driven by the
// title mapping alone, so the year matcher's 609 k rows are streamed once
// and never sorted. The drivers' rows are indexed by domain ordinal in a
// dense array (the one operator structure sized by ordinals, bounded by
// the largest driver domain ordinal), each input is streamed against it
// once, and the kept pairs are sorted by first sighting, which is Merge's
// order. When no input can be left out (the ignore-missing kinds,
// PreferMap, t <= 0 or NaN) the full fold runs and keeps only sims >= t.
//
// Worker-private scratch plus a deterministic gather is the whole
// concurrency story: workers never share mutable state, each run is folded
// whole by the worker whose chunk it starts in, and chunks write disjoint
// positions. The launch machinery is centralized in internal/par —
// partition-by-index goroutines, panic capture per chunk, one wg.Wait —
// so operator code contains no `go` statements and invariant 7 below holds
// by construction. Bulk results enter a Mapping through the pre-deduped
// column constructor (newFromColumns), which takes slice ownership and
// leaves the pair index lazy.
//
// # Observability
//
// internal/obs is the dependency-free observability core: counters, gauges
// and fixed-bucket histograms allocated at registration time and recorded
// with a few atomic operations, a process-global registry with
// deterministic Prometheus text exposition, and a stage-trace facility
// that times named pipeline stages into caller-owned scratch. The engine
// packages register their metrics at init, so any program importing them
// can expose the registry (obs.Default.WritePrometheus). The serve layer's
// route metrics (moma_requests_total{route=,code=},
// moma_request_duration_seconds{route=}, moma_uptime_seconds) are handles
// on the same registry, resolved when a route is installed, and GET
// /metrics is one exposition of it: there is one metrics system.
//
// The metric vocabulary follows the package structure:
//
//   - moma_live_*: online resolution. moma_live_resolve_seconds and
//     moma_live_resolve_stage_seconds{stage=...} time each resolve and its
//     stages — "block" (token lookup), "profile" (query profiling) and
//     "score" (the fused candidate probe-and-score loop); candidate and
//     match counters plus add/remove/compaction totals and a resident
//     instances gauge ride along.
//   - moma_match_*: the batch match kernel — candidate pairs considered,
//     kept, and stopped early by a floor; flushed once per range.
//   - moma_mapping_*: the mapping operators —
//     moma_mapping_op_seconds{op=,workers=} times whole compose/merge/
//     select invocations per configured worker cap, and
//     moma_mapping_op_rows_total counts their output correspondences.
//     Recorded once per operator call, never inside the row loops.
//   - moma_store_*: repository persistence — put/delta/compaction
//     latencies, WAL bytes/records, fsyncs, last snapshot size.
//   - moma_blockcache_* {col="tokens"|"norm"|"index"} / moma_profilecache_*:
//     fetches of a set's derived blocking and profile columns served from
//     its store (hits) or built (misses), and columns dropped because the
//     set's version moved (invalidations).
//   - moma_sim_dict_terms / moma_model_dict_ids: sizes of the two
//     process-global dictionaries — the runtime dial for the dictionary-
//     ownership invariant that moma-vet's dictgrowth analyzer checks
//     statically. The id count includes a durable repository's replayed
//     ids, which intern through model.IDs like every other mapping's.
//
// Recording obeys invariant 6 below: no record path allocates
// (an observation is a bucket scan plus a few atomic adds on
// registration-time storage; labels are pre-rendered strings), so
// instrumentation does not void the warm resolve path's zero-allocation
// budget — TestResolveAppendZeroAllocs passes with tracing on. Slow-query
// capture is threshold-gated (obs.SetSlowThreshold, moma-serve's
// -slow-query flag): queries above the threshold deposit their stage
// breakdown in a fixed ring readable as JSON via GET /debug/slow, while
// queries below it pay one atomic load. moma-serve also mounts
// /debug/pprof/* and /debug/vars; moma-load scrapes /metrics before and
// after a run and prints the server-side per-stage latency shares.
//
// # Robustness
//
// The persistence and serving layers are built to a failure taxonomy, and
// internal/faultfs exists to exercise every branch of it: the repository
// store talks to disk through a tiny filesystem seam (faultfs.FS, with
// faultfs.OS the zero-cost passthrough), and faultfs.Injector scripts
// failures through that seam — error-after-N, short writes that really
// leave the prefix on disk, byte-budget exhaustion (the disk-full drama in
// miniature), torn renames, and seeded pseudo-random chaos schedules.
//
// Storage failures are typed (store.StorageError names the op and path)
// and divide by what they threaten. A failed WAL append means new writes
// cannot be made durable: the store enters degraded mode — acknowledged
// state stays readable, mutations are rejected with store.ErrDegraded —
// until Recover truncates the log to its durable prefix and verifies the
// disk accepts appends again. A failed compaction threatens nothing (the
// triggering write is already in the log), so it never degrades: every
// exit path leaves the store on a consistent snapshot+log pair whose
// replay converges to the same state. Crash recovery tolerates exactly one
// torn final record and repairs it on open — physically truncating the
// tail so a later append can never merge acknowledged bytes with garbage.
// The crash matrix (internal/store/crash_test.go) walks fault × site
// cells and a seeded-chaos fuzzer asserting one property throughout:
// state after crash-and-reopen equals acknowledged state, exactly.
//
// The serving layer assumes overload and handler bugs are normal weather:
// admission is capped (excess shed with 429 + Retry-After, never queued),
// requests carry deadlines and body caps, panics are contained to a 500,
// and /readyz — distinct from /healthz — reports draining and degraded
// states so load balancers stop sending traffic the process would reject.
// moma-load mirrors the contract with capped-exponential-backoff retries.
// Defaults live in serve.Options; cmd/moma-serve exposes them as flags,
// plus -fault-script to run chaos drills against a live server.
//
// # Repo invariants
//
// Seven cross-cutting invariants hold everywhere in this tree. The first
// three no runtime test can hold — a test sees only the inputs it runs — so
// cmd/moma-vet checks them statically:
//
//  1. Determinism: no observable output may depend on Go's randomized map
//     iteration order. Loops over maps must not append to outer slices
//     (unless the result is sorted immediately after), call order-sensitive
//     sinks, send on channels, or accumulate floats (addition is not
//     associative). Checker: mapiter.
//  2. Dictionary ownership: read paths never grow a dictionary. A function
//     marked `//moma:readpath` must not reach — through any call chain — an
//     API marked `//moma:interns` (sim.Dict.ID, model.IDDict.Ord, the
//     sim.ProfiledSim.ProfileInto contract; sim.QueryInto is the read-side
//     entry point and holds the one justified suppression). Checker:
//     dictgrowth.
//  3. Durability errors are handled: the error of a Close/Sync/Flush/Encode
//     on a persistence-capable sink (anything with Write/Sync in its method
//     set, or any encoder) is never silently dropped — a failed close is
//     the last chance to hear that buffered bytes missed the disk.
//     Read-only fds may suppress with `//moma:errsink-ok <why>`.
//     Checker: errsink.
//
// The other four are held by runtime tests, each of which fails when its
// invariant breaks:
//
//  4. Columnar integrity: parallel columns move together — Mapping's, the
//     match kernel's and ResolveSet's dom/rng/sim, Resolver's ids/alive,
//     its block.Index's rows and the per-slot profiles with their filter keys,
//     a profile column's spans, per-slot arrays and keys under Append, Set,
//     Drop and Compact, a sim.Dict shard's strs/keys. Held by
//     mapping.FromColumns (panics on unequal lengths), the eps-0
//     differential oracles of internal/mapping
//     (TestDifferential*) and internal/match (TestStreamed*MatchesMaterialized),
//     live's TestResolveMatchesBatch (ResolveSet and its batch twin against
//     the exhaustive oracle, insertion order included), and the
//     key-alignment check after the churn of TestChurnCompaction,
//     TestCompactionPreservesRemoveAndReplace, TestAddReplace and
//     TestTFIDFIncrementalMatchesRebuild, FuzzQueryIntoMatchesProfileInto
//     and FuzzProfileColumnMatchesReference.
//  5. Lock discipline: a field commented `// guarded by mu` is touched only
//     while its sibling mutex is held (xxxLocked helpers say "Callers hold
//     mu"). Held by `go test -race` over one concurrent test per type:
//     store.Store TestConcurrentAccess, live.Resolver
//     TestConcurrentResolveAdd, model.IDDict TestIDDictConcurrent, the
//     model column store TestColumnConcurrent, obs.Registry
//     TestRegistryConcurrent, obs.SlowRing TestSlowRingConcurrent, sim.Dict
//     TestDictConcurrent, workflow.Engine's object sets and System's
//     resolvers TestSystemConcurrentUse.
//  6. Allocation discipline: a warm hot path performs zero heap
//     allocations; only one-time growth (lazy builds, scratch reaching its
//     high-water mark) may allocate. Held by the testing.AllocsPerRun gates
//     CI runs without -race: TestResolveAppendZeroAllocs,
//     TestEachCandidateZeroAllocs, TestProfileIntoReusesBuffers,
//     TestAppendLookupTokenIDsZeroAllocs, TestCompareZeroAllocs,
//     TestReadProbesZeroAllocs, TestRecordPathsZeroAllocs,
//     TestGSSearchZeroAllocs and TestRouteRecordZeroAllocs.
//  7. Worker partitioning: a goroutine launched in a loop writes only its
//     own partition, and results are read after the join. par.Plan.Run is
//     the only such site in the library; `go test -race` holds it through
//     TestRunVisitsEveryRowOnce, TestRadixSortMatchesSortStable and the
//     mapping operators' TestDifferential*Workers at 1, 3 and 8 workers,
//     and through the match kernel suites at GOMAXPROCS 1, 2, 3 and 8
//     (and -cpu 1,2,8). cmd/moma-load's worker loops run under a -race build in
//     CI's HTTP and chaos smokes.
//
// Run the analyzers with:
//
//	go run ./cmd/moma-vet ./...          # mapiter, dictgrowth, errsink
//	go run ./cmd/moma-vet -json ./...    # one JSON object per finding (CI)
//	go run ./cmd/moma-vet -suppressions  # audit every suppression + why
//
// Findings exit 1; a clean tree exits 0. CI runs the suite after go vet and
// pipes -json output through a problem matcher, so findings annotate PR
// diffs inline. Suppressions are per-invariant
// (`//moma:nondeterministic-ok <why>`, `//moma:dictgrowth-ok <why>`,
// `//moma:errsink-ok <why>`) and require a one-line justification — an
// empty justification is itself a finding. Place the suppression on the
// offending line, the line above it, or in the function's doc comment;
// `moma-vet -suppressions` lists them all for review.
//
// moma-vet is a standalone driver, not a `go vet -vettool`: the vettool
// protocol needs golang.org/x/tools' unitchecker and objectpath machinery
// to serialize facts between separately-compiled units, and this repo is
// dependency-free. Instead internal/analysis loads the whole module into
// one shared type universe (`go list -export -deps` for out-of-module
// imports), so cross-package facts are plain in-memory objects and the
// analyzers stay small.
//
// # Benchmarks
//
// The benchmark is the bench/ module, which runs the paper's tables, the
// mapping operators at a million rows and two served workloads end to end,
// and prints one JSON report:
//
//	go run -C bench .                                  # all four workloads
//	go run -C bench . -workload batch_paper -trace 1   # one, with its layers
//
// The root package keeps only the benchmarks CI steps name:
// BenchmarkMapping{Compose,Merge,Select} at 100 k and 1 M rows and
// BenchmarkWALPutDelta / BenchmarkWALReplay, which CI compares against the
// base commit, and BenchmarkResolve, the online path CI profiles.
package moma
