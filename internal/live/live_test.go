package live

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/sim"
)

var (
	dblpPub = model.LDS{Source: "DBLP", Type: model.Publication}
	acmPub  = model.LDS{Source: "ACM", Type: model.Publication}
)

// syntheticSets builds two noisy publication sets with overlapping titles,
// mirroring the fixtures of the match package tests.
func syntheticSets(n int) (queries, set *model.ObjectSet) {
	topics := []string{
		"generic schema matching with cupid",
		"a formal perspective on the view selection problem",
		"mapping based object matching for data integration",
		"entity resolution over heterogeneous web data sources",
		"adaptive blocking techniques for scalable record linkage",
		"similarity joins for near duplicate detection",
	}
	queries = model.NewObjectSet(dblpPub)
	set = model.NewObjectSet(acmPub)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		topic := topics[i%len(topics)]
		queries.AddNew(model.ID(fmt.Sprintf("d%03d", i)), map[string]string{
			"title":   fmt.Sprintf("%s part %d", topic, i/len(topics)),
			"authors": fmt.Sprintf("author %c thor", 'a'+byte(i%7)),
			"year":    fmt.Sprintf("%d", 1994+i%10),
		})
		title := fmt.Sprintf("%s part %d", topic, i/len(topics))
		if rng.Intn(3) == 0 {
			title += " revised"
		}
		set.AddNew(model.ID(fmt.Sprintf("g%03d", i)), map[string]string{
			"name":    title,
			"authors": fmt.Sprintf("author %c thor", 'a'+byte((i+1)%7)),
			"year":    fmt.Sprintf("%d", 1994+i%10),
		})
	}
	return queries, set
}

func testConfig() Config {
	return Config{
		MinShared: 2,
		Threshold: 0.5,
		Columns: []Column{
			{QueryAttr: "title", SetAttr: "name", Sim: sim.Trigram, Weight: 3},
			{QueryAttr: "authors", SetAttr: "authors", Sim: sim.TokenJaccard, Weight: 1},
			{QueryAttr: "year", SetAttr: "year", Sim: sim.YearSim, Weight: 2},
		},
	}
}

// batchMatcher is the batch twin of testConfig: identical blocking, columns,
// weights and threshold.
func batchMatcher(cfg Config) *match.MultiAttribute {
	pairs := make([]match.AttrPair, len(cfg.Columns))
	for i, c := range cfg.Columns {
		pairs[i] = match.AttrPair{AttrA: c.QueryAttr, AttrB: c.SetAttr, Sim: c.Sim, Weight: c.Weight}
		if c.Weight == 0 {
			pairs[i].Weight = 1 // the resolver's default
		}
	}
	return &match.MultiAttribute{
		MatcherName: "batch-twin",
		Pairs:       pairs,
		Threshold:   cfg.Threshold,
		Blocker: block.TokenBlocking{
			AttrA:     cfg.Columns[0].QueryAttr,
			AttrB:     cfg.Columns[0].SetAttr,
			MinShared: cfg.MinShared,
		},
	}
}

// atGOMAXPROCS runs f at GOMAXPROCS n, the batch matchers' worker count,
// and restores the previous setting.
func atGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// oracleConfigs are the configurations the pruned engines are held to the
// exhaustive oracle at: the fixture's own, the benchmark's three (the paper's
// DBLP-GS matcher, a stricter threshold, and serve_read's), the weighted
// three-column one at a threshold where the multi-column bound bites, and a
// token-set and a Jaccard n-gram first column, so both kinds of filter key
// reject in front of the oracle.
func oracleConfigs() map[string]Config {
	title := func(measure sim.Func, minShared int, threshold float64) Config {
		return Config{MinShared: minShared, Threshold: threshold,
			Columns: []Column{{QueryAttr: "title", SetAttr: "name", Sim: measure}}}
	}
	weighted := testConfig()
	weighted.Threshold = 0.75
	return map[string]Config{
		"fixture":                testConfig(),
		"trigram-0.75-ms2":       title(sim.Trigram, 2, 0.75),
		"trigram-0.82-ms2":       title(sim.Trigram, 2, 0.82),
		"trigram-0.7-ms3":        title(sim.Trigram, 3, 0.7),
		"weighted-3-1-2-.75":     weighted,
		"tokendice-0.8-ms2":      title(sim.TokenDice, 2, 0.8),
		"trigramjaccard-0.7-ms2": title(sim.TrigramJaccard, 2, 0.7),
	}
}

// checkKeysAligned asserts that the resolver's filter keys follow its
// profiles: every live slot's key is the one its measure computes from the
// slot's profile, and every tombstone's key is zero. A stale key would
// reject a pair its profiles score above the floor.
func checkKeysAligned(t *testing.T, r *Resolver) {
	t.Helper()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := range r.cols {
		c := &r.cols[i]
		if len(c.col.Profs) != len(r.ids) {
			t.Fatalf("column %d holds %d profiles for %d slots", i, len(c.col.Profs), len(r.ids))
		}
		keyed, ok := c.ps.(sim.Keyed)
		if !ok {
			if c.col.Keys != nil {
				t.Fatalf("column %d: a measure without keys has a key column", i)
			}
			continue
		}
		if len(c.col.Keys) != len(r.ids) {
			t.Fatalf("column %d holds %d keys for %d slots", i, len(c.col.Keys), len(r.ids))
		}
		for slot, k := range c.col.Keys {
			var want sim.Key
			if r.alive[slot] {
				want = keyed.Key(c.col.Profs[slot])
			}
			if k != want {
				t.Fatalf("column %d slot %d (alive %v): key %+v, want %+v", i, slot, r.alive[slot], k, want)
			}
		}
	}
}

// exhaustive is the test-only oracle of the scoring stage: every member that
// shares MinShared distinct blocking tokens with the record is scored in
// full, through the measures' string forms, summed in column order and kept
// at or above the threshold, in the members' insertion order. It shares no
// code with the engines beyond the measures themselves and sim.Tokens, and
// knows no floor. asMember reads the record under the set-side names.
func exhaustive(cfg Config, q *model.Instance, asMember bool, members *model.ObjectSet) []Match {
	attr := func(query, set string) string {
		if asMember {
			return q.Attr(set)
		}
		return q.Attr(query)
	}
	blockQ, blockS := cfg.BlockQueryAttr, cfg.BlockSetAttr
	if blockQ == "" {
		blockQ, blockS = cfg.Columns[0].QueryAttr, cfg.Columns[0].SetAttr
	}
	qtoks := map[string]bool{}
	for _, tok := range sim.Tokens(attr(blockQ, blockS)) {
		qtoks[tok] = true
	}
	var out []Match
	members.Each(func(in *model.Instance) bool {
		shared := map[string]bool{}
		for _, tok := range sim.Tokens(in.Attr(blockS)) {
			if qtoks[tok] {
				shared[tok] = true
			}
		}
		if len(shared) < max(cfg.MinShared, 1) {
			return true
		}
		var sum, total float64
		for _, c := range cfg.Columns {
			w := c.Weight
			if w == 0 {
				w = 1
			}
			sum += w * c.Sim(attr(c.QueryAttr, c.SetAttr), in.Attr(c.SetAttr))
			total += w
		}
		if s := sum / total; s >= cfg.Threshold {
			out = append(out, Match{ID: in.ID, Sim: s})
		}
		return true
	})
	return out
}

// exhaustiveSet is the oracle of ResolveSet and of a batch match: exhaustive
// per query, collected in query order.
func exhaustiveSet(cfg Config, queries, members *model.ObjectSet) *mapping.Mapping {
	out := mapping.NewSame(queries.LDS(), members.LDS())
	queries.Each(func(q *model.Instance) bool {
		for _, m := range exhaustive(cfg, q, false, members) {
			out.AddMax(q.ID, m.ID, m.Sim)
		}
		return true
	})
	return out
}

// TestResolveMatchesBatch pins the core equivalence at every oracle
// configuration: resolving a query set record-by-record against a Resolver,
// a batch match at GOMAXPROCS 1, 3 and 8, and the exhaustive oracle produce the
// same mapping — similarities bit for bit (eps 0) and correspondence
// insertion order included — while the engines prune.
func TestResolveMatchesBatch(t *testing.T) {
	queries, set := syntheticSets(120)
	for name, cfg := range oracleConfigs() {
		r, err := NewResolver(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		candidates, pruned := resolveCandidates.Load(), resolvePruned.Load()
		online, err := r.ResolveSet(queries)
		if err != nil {
			t.Fatal(err)
		}
		candidates, pruned = resolveCandidates.Load()-candidates, resolvePruned.Load()-pruned
		want := exhaustiveSet(cfg, queries, set)
		if want.Len() == 0 {
			t.Fatalf("%s: fixture produced no matches; fixture broken", name)
		}
		if !reflect.DeepEqual(online.Correspondences(), want.Correspondences()) {
			t.Fatalf("%s: online mapping diverges from the exhaustive oracle:\nonline %v\noracle %v", name, online, want)
		}
		if cfg.Threshold >= 0.7 && (pruned == 0 || pruned >= candidates) {
			t.Errorf("%s: %d of %d candidates pruned; the bound is not exercised", name, pruned, candidates)
		}
		for _, procs := range []int{1, 3, 8} {
			var batch *mapping.Mapping
			atGOMAXPROCS(procs, func() { batch, err = batchMatcher(cfg).Match(queries, set) })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch.Correspondences(), want.Correspondences()) {
				t.Fatalf("%s: batch mapping at GOMAXPROCS %d diverges from the exhaustive oracle:\nbatch  %v\noracle %v", name, procs, batch, want)
			}
		}
	}
}

// TestResolveAdapterParity pins the one scoring path online: a column
// configured with a closure around a built-in scores through the adapter and
// resolves to the exact mapping — similarities and insertion order — the
// built-in measure resolves to, queries without the attribute included.
func TestResolveAdapterParity(t *testing.T) {
	queries, set := syntheticSets(120)
	queries.AddNew("d-untitled", map[string]string{"authors": "author a thor"})
	resolve := func(title sim.Func) []mapping.Correspondence {
		cfg := testConfig()
		cfg.Columns[0].Sim = title
		r, err := NewResolver(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.ResolveSet(queries)
		if err != nil {
			t.Fatal(err)
		}
		return m.Correspondences()
	}
	builtin := resolve(sim.Trigram)
	adapter := resolve(func(a, b string) float64 { return sim.Trigram(a, b) })
	if !reflect.DeepEqual(adapter, builtin) {
		t.Fatalf("adapter column diverges from the built-in:\nadapter %v\nbuiltin %v", adapter, builtin)
	}
}

// TestIncrementalAddMatchesBatch is the differential incremental-correctness
// test of the PR: a Resolver seeded with a prefix of the set and grown by N
// incremental Adds must resolve exactly like a batch re-match against the
// full set — same correspondences, same similarities (eps 0), same order.
func TestIncrementalAddMatchesBatch(t *testing.T) {
	queries, set := syntheticSets(150)
	ids := set.IDs()
	for name, cfg := range oracleConfigs() {
		r, err := NewResolver(set.Subset(ids[:50]), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids[50:] {
			if err := r.Add(set.Get(id)); err != nil {
				t.Fatal(err)
			}
		}
		if r.Len() != set.Len() {
			t.Fatalf("resolver holds %d instances, want %d", r.Len(), set.Len())
		}

		online, err := r.ResolveSet(queries)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := batchMatcher(cfg).Match(queries, set)
		if err != nil {
			t.Fatal(err)
		}
		if !online.Equal(batch, 0) {
			t.Fatalf("%s: incremental resolver diverges from batch re-match (eps 0):\nonline %v\nbatch  %v", name, online, batch)
		}
		if !reflect.DeepEqual(online.Correspondences(), batch.Correspondences()) {
			t.Fatalf("%s: correspondence insertion order diverges from batch", name)
		}
		if want := exhaustiveSet(cfg, queries, set); !reflect.DeepEqual(online.Correspondences(), want.Correspondences()) {
			t.Fatalf("%s: incremental resolver diverges from the exhaustive oracle:\nonline %v\noracle %v", name, online, want)
		}
	}
}

// TestRemoveMatchesRebuild: removing instances must resolve like a fresh
// resolver over the surviving subset.
func TestRemoveMatchesRebuild(t *testing.T) {
	queries, set := syntheticSets(100)
	cfg := testConfig()
	r, err := NewResolver(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := set.IDs()
	removed := map[model.ID]bool{}
	for i, id := range ids {
		if i%3 == 0 {
			if !r.Remove(id) {
				t.Fatalf("Remove(%s) = false, want true", id)
			}
			removed[id] = true
		}
	}
	if r.Remove("nonexistent") {
		t.Fatal("Remove of unknown id must report false")
	}
	survivors := set.Filter(func(in *model.Instance) bool { return !removed[in.ID] })
	fresh, err := NewResolver(survivors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ResolveSet(queries)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ResolveSet(queries)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Fatalf("post-remove resolver diverges from rebuild:\ngot %v\nwant %v", got, want)
	}
	for _, c := range got.Correspondences() {
		if removed[c.Range] {
			t.Fatalf("removed instance %s still matches", c.Range)
		}
	}
}

// TestAddReplace: re-adding a live id replaces its attributes in place.
func TestAddReplace(t *testing.T) {
	_, set := syntheticSets(30)
	cfg := testConfig()
	r, err := NewResolver(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := set.IDs()[0]
	q := model.NewInstance("q", map[string]string{
		"title": "an entirely fresh replacement title", "authors": "author x", "year": "2001",
	})
	if got := r.Resolve(q); len(got) != 0 {
		t.Fatalf("fresh title must not match yet, got %v", got)
	}
	repl := model.NewInstance(victim, map[string]string{
		"name": "an entirely fresh replacement title", "authors": "author x", "year": "2001",
	})
	if err := r.Add(repl); err != nil {
		t.Fatal(err)
	}
	if r.Len() != set.Len() {
		t.Fatalf("replace must not grow the live count: %d != %d", r.Len(), set.Len())
	}
	checkKeysAligned(t, r)
	got := r.Resolve(q)
	if len(got) != 1 || got[0].ID != victim {
		t.Fatalf("replacement must match the query, got %v", got)
	}
}

// TestAddResolveDelta: AddResolve returns the matches against the members
// present before the add — the same-mapping delta of the arrival — and the
// instance is live afterwards.
func TestAddResolveDelta(t *testing.T) {
	lds := acmPub
	set := model.NewObjectSet(lds)
	set.AddNew("g1", map[string]string{"name": "the view selection problem", "authors": "thor", "year": "2000"})
	// Query and set schemas deliberately differ: arrivals are member records
	// and must be read under the set-side attribute names.
	r, err := NewResolver(set, Config{
		MinShared: 1,
		Threshold: 0.6,
		Columns:   []Column{{QueryAttr: "title", SetAttr: "name", Sim: sim.Trigram}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dup := model.NewInstance("g2", map[string]string{"name": "the view selection problem", "authors": "thor", "year": "2000"})
	matches, err := r.AddResolve(dup)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].ID != "g1" || matches[0].Sim != 1 {
		t.Fatalf("arrival delta = %v, want exact duplicate of g1", matches)
	}
	if !r.Has("g2") {
		t.Fatal("instance must be live after AddResolve")
	}
	// A second identical arrival now sees both.
	matches, err = r.AddResolve(model.NewInstance("g3", dup.Attrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("second arrival delta = %v, want 2 matches", matches)
	}
	// Re-adding a live id is a replace: it must not match its own previous
	// version, only its peers.
	matches, err = r.AddResolve(model.NewInstance("g3", dup.Attrs))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.ID == "g3" {
			t.Fatalf("replaced instance matched its own stale self: %v", matches)
		}
	}
	if len(matches) != 2 {
		t.Fatalf("replace delta = %v, want the 2 peers", matches)
	}
	if r.Len() != 3 {
		t.Fatalf("live count after replace = %d, want 3", r.Len())
	}

	// Every arrival's delta equals the exhaustive oracle over the members
	// present before it, at every oracle configuration: the arrival path
	// scores under the write lock through the same bounds as Resolve.
	_, members := syntheticSets(120)
	for name, cfg := range oracleConfigs() {
		present := model.NewObjectSet(lds)
		r, err := NewResolver(present, cfg)
		if err != nil {
			t.Fatal(err)
		}
		deltas := 0
		members.Each(func(in *model.Instance) bool {
			want := exhaustive(cfg, in, true, present)
			got, err := r.AddResolve(in)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: delta of %s diverges from the exhaustive oracle:\ngot    %v\noracle %v", name, in.ID, got, want)
			}
			deltas += len(got)
			present.Add(in)
			return true
		})
		if deltas == 0 {
			t.Fatalf("%s: no arrival matched anything; fixture broken", name)
		}
	}
}

// TestAddBeyondKeyTable: the first column's key table covers the
// cardinalities the resolver was built with, so a record longer than every
// member is tested past its end — as a query before and after it is added,
// as the arrival AddResolve resolves, and as the member the other queries
// meet once it is in — and an Add that raises the largest cardinality
// extends the table. Every result equals the exhaustive oracle's.
func TestAddBeyondKeyTable(t *testing.T) {
	queries, set := syntheticSets(60)
	long := func(id model.ID, words int) *model.Instance {
		var title strings.Builder
		title.WriteString("mapping based object matching for data integration part 0")
		for i := range words {
			fmt.Fprintf(&title, " chapter%d", i)
		}
		v := title.String()
		return model.NewInstance(id, map[string]string{"title": v, "name": v, "authors": "author b thor", "year": "1996"})
	}
	for name, cfg := range oracleConfigs() {
		members := set.Clone()
		r, err := NewResolver(members, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string, got, want []Match) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s diverges from the exhaustive oracle:\ngot    %v\noracle %v", name, label, got, want)
			}
		}
		checkTable := func(when string) {
			t.Helper()
			want := r.scorer.RowFilter()
			want.Cover(2 * r.cols[0].col.MaxCard())
			if !reflect.DeepEqual(r.filter, want) {
				t.Fatalf("%s: %s, the key table does not cover twice the largest cardinality, %d", name, when, r.cols[0].col.MaxCard())
			}
		}
		checkTable("built")
		built := r.cols[0].col.MaxCard()
		big := long("g-long", 20)
		check("the long record as a query", r.Resolve(big), exhaustive(cfg, big, false, members))
		got, err := r.AddResolve(big)
		if err != nil {
			t.Fatal(err)
		}
		check("the long record's arrival", got, exhaustive(cfg, big, true, members))
		members.Add(big)
		if _, keyed := r.cols[0].ps.(sim.Keyed); keyed && r.cols[0].col.MaxCard() <= built {
			t.Fatalf("%s: the long member's cardinality is within the %d built", name, built)
		}
		checkTable("after the long member's add")
		check("the long record as a query once added", r.Resolve(big), exhaustive(cfg, big, false, members))
		longer := long("q-longer", 60)
		check("a query longer than every member", r.Resolve(longer), exhaustive(cfg, longer, false, members))
		hits := 0
		queries.Each(func(q *model.Instance) bool {
			got := r.Resolve(q)
			check("query "+string(q.ID), got, exhaustive(cfg, q, false, members))
			for _, m := range got {
				if m.ID == big.ID {
					hits++
				}
			}
			return true
		})
		checkKeysAligned(t, r)
		if name == "fixture" && hits == 0 {
			t.Fatalf("%s: no query matched the long member; the fixture does not reach it", name)
		}
	}
}

// TestTFIDFIncrementalMatchesRebuild: corpus-backed columns stay exact under
// incremental Add/Remove — the corpus document frequencies and all resident
// vectors equal a from-scratch build at every step.
func TestTFIDFIncrementalMatchesRebuild(t *testing.T) {
	queries, set := syntheticSets(60)
	cfg := Config{
		MinShared: 1,
		Threshold: 0.3,
		Columns:   []Column{{QueryAttr: "title", SetAttr: "name", TFIDF: true}},
	}
	ids := set.IDs()
	r, err := NewResolver(set.Subset(ids[:20]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[20:] {
		if err := r.Add(set.Get(id)); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		if i%4 == 0 {
			r.Remove(id)
		}
	}
	checkKeysAligned(t, r)
	survivors := set.Filter(func(in *model.Instance) bool {
		i := set.IndexOf(in.ID)
		return i%4 != 0
	})
	fresh, err := NewResolver(survivors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ResolveSet(queries)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ResolveSet(queries)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 {
		t.Fatal("tf-idf fixture produced no matches; fixture broken")
	}
	if !got.Equal(want, 0) {
		t.Fatalf("incremental tf-idf resolver diverges from rebuild:\ngot %v\nwant %v", got, want)
	}
}

// TestResolveDoesNotGrowDictionaries pins the read-side interning contract:
// resolving queries full of never-seen tokens must leave both the
// resolver's private blocking dictionary and the process-global term
// dictionary exactly as large as the registered data left them — for
// profiled token measures and corpus-backed TF-IDF columns alike.
func TestResolveDoesNotGrowDictionaries(t *testing.T) {
	_, set := syntheticSets(40)
	cfg := testConfig()
	cfg.Columns = append(cfg.Columns, Column{QueryAttr: "title", SetAttr: "name", TFIDF: true, Weight: 1})
	r, err := NewResolver(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	globalBefore, privBefore := sim.Terms.Len(), r.dict.Len()
	for i := 0; i < 50; i++ {
		q := model.NewInstance("q", map[string]string{
			"title":   fmt.Sprintf("view selection qgrow%04da qgrow%04db never interned", i, i),
			"authors": fmt.Sprintf("qgrow%04dc thor", i),
			"year":    "2001",
		})
		r.Resolve(q)
	}
	if got := sim.Terms.Len(); got != globalBefore {
		t.Fatalf("Resolve grew the global dictionary %d -> %d", globalBefore, got)
	}
	if got := r.dict.Len(); got != privBefore {
		t.Fatalf("Resolve grew the resolver dictionary %d -> %d", privBefore, got)
	}
}

// TestChurnCompaction is the bounded-memory test of slot compaction: 10k
// add/remove cycles against a small live set must keep the slot count (and
// thus every per-slot array) proportional to the live size, not to the
// churn history — and the compacted resolver must keep resolving exactly
// like a fresh build over the same members.
func TestChurnCompaction(t *testing.T) {
	queries, set := syntheticSets(60)
	cfg := testConfig()
	r, err := NewResolver(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := set.Len()
	maxSlots := 0
	for cycle := 0; cycle < 10000; cycle++ {
		id := model.ID(fmt.Sprintf("churn%05d", cycle))
		if err := r.Add(model.NewInstance(id, map[string]string{
			"name": fmt.Sprintf("churning title number %d revision", cycle%97),
			"year": "2001",
		})); err != nil {
			t.Fatal(err)
		}
		if !r.Remove(id) {
			t.Fatalf("cycle %d: Remove(%s) = false", cycle, id)
		}
		if st := r.Stats(); st.Slots > maxSlots {
			maxSlots = st.Slots
		}
	}
	// The compaction trigger fires once tombstones exceed the live count
	// (past the compactMinDead floor), so slots may transiently reach
	// 2*live+compactMinDead but never grow with the 10k-cycle history.
	if bound := 2*live + 2*compactMinDead; maxSlots > bound {
		t.Fatalf("slots reached %d under churn, want <= %d (live %d)", maxSlots, bound, live)
	}
	if st := r.Stats(); st.Live != live {
		t.Fatalf("post-churn live = %d, want %d", st.Live, live)
	}
	checkKeysAligned(t, r)
	// Compaction must be invisible to resolution: same answers, same order
	// as a resolver freshly built over the surviving members.
	fresh, err := NewResolver(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ResolveSet(queries)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ResolveSet(queries)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 {
		t.Fatal("churn fixture produced no matches; fixture broken")
	}
	if !reflect.DeepEqual(got.Correspondences(), want.Correspondences()) {
		t.Fatalf("post-churn resolver diverges from fresh build:\ngot %v\nwant %v", got, want)
	}
}

// TestCompactionPreservesRemoveAndReplace exercises the interaction of
// compaction with later removals and replaces: slot renumbering must keep
// the id→slot bookkeeping, the blocking index and the TF-IDF corpora
// consistent.
func TestCompactionPreservesRemoveAndReplace(t *testing.T) {
	queries, set := syntheticSets(240)
	cfg := testConfig()
	cfg.Columns = append(cfg.Columns, Column{QueryAttr: "title", SetAttr: "name", TFIDF: true, Weight: 1})
	r, err := NewResolver(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := set.IDs()
	// Remove the first two thirds — enough dead slots to force compaction.
	for _, id := range ids[:160] {
		r.Remove(id)
	}
	if st := r.Stats(); st.Slots >= 240 {
		t.Fatalf("compaction never ran: %d slots for %d live", st.Slots, st.Live)
	}
	// Post-compaction mutations: replace one survivor, remove another.
	surviving := ids[160:]
	repl := set.Get(surviving[3]).Clone()
	repl.SetAttr("name", "a replacement title after compaction")
	if err := r.Add(repl); err != nil {
		t.Fatal(err)
	}
	r.Remove(surviving[7])
	checkKeysAligned(t, r)
	survivors := set.Filter(func(in *model.Instance) bool {
		if in.ID == surviving[7] {
			return false
		}
		return set.IndexOf(in.ID) >= 160
	})
	for i, id := range surviving {
		if i != 7 && !r.Has(id) {
			t.Fatalf("survivor %s lost", id)
		}
	}
	fresh, err := NewResolver(survivors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The fresh resolver has no replacement; apply the same one.
	if err := fresh.Add(repl); err != nil {
		t.Fatal(err)
	}
	got, err := r.ResolveSet(queries)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ResolveSet(queries)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Fatalf("post-compaction mutations diverge from rebuild:\ngot %v\nwant %v", got, want)
	}
}

// TestResolverConfigErrors covers constructor validation.
func TestResolverConfigErrors(t *testing.T) {
	_, set := syntheticSets(5)
	cases := []Config{
		{},                                    // no columns
		{Columns: []Column{{}}},               // no attrs
		{Columns: []Column{{QueryAttr: "t"}}}, // no set attr
		{Columns: []Column{{QueryAttr: "t", SetAttr: "n"}}},                               // no measure
		{Columns: []Column{{QueryAttr: "t", SetAttr: "n", Sim: sim.Trigram, Weight: -1}}}, // negative weight
	}
	for i, cfg := range cases {
		if _, err := NewResolver(set, cfg); err == nil {
			t.Errorf("case %d: NewResolver accepted invalid config", i)
		}
	}
	if _, err := NewResolver(nil, testConfig()); err == nil {
		t.Error("nil set must be rejected")
	}
}

// TestResolveSetTypeMismatch rejects query sets of a different object type.
func TestResolveSetTypeMismatch(t *testing.T) {
	_, set := syntheticSets(5)
	r, err := NewResolver(set, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	authors := model.NewObjectSet(model.LDS{Source: "DBLP", Type: model.Author})
	if _, err := r.ResolveSet(authors); err == nil {
		t.Fatal("type mismatch must be rejected")
	}
}

// TestConcurrentResolveAdd hammers one Resolver with concurrent Resolve,
// Add and Remove traffic; under -race this proves the locking discipline,
// and every observed result must be internally consistent (matches only at
// or above threshold).
func TestConcurrentResolveAdd(t *testing.T) {
	queries, set := syntheticSets(80)
	cfg := testConfig()
	ids := set.IDs()
	r, err := NewResolver(set.Subset(ids[:40]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qids := queries.IDs()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries.Get(qids[(i*7+w)%len(qids)])
				for _, m := range r.Resolve(q) {
					if m.Sim < cfg.Threshold {
						t.Errorf("match below threshold: %v", m)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for round := 0; round < 3; round++ {
			for _, id := range ids[40:] {
				if err := r.Add(set.Get(id)); err != nil {
					t.Error(err)
					return
				}
			}
			for _, id := range ids[40:] {
				r.Remove(id)
			}
		}
	}()
	wg.Wait()
	if r.Len() != 40 {
		t.Fatalf("post-churn live count = %d, want 40", r.Len())
	}
	st := r.Stats()
	if st.Live != 40 || st.Slots < 80 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestResolveAppendZeroAllocs pins the serving-path contract: with every
// column on a measure that keeps no strings and allocates nothing in Compare
// (trigram, token Jaccard, year — as in testConfig — plus a rune measure,
// Affix) and a reused dst, a warm ResolveAppend performs zero heap
// allocations — with an n-gram and with a token-set measure keying the first
// column.
func TestResolveAppendZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	queries, set := syntheticSets(120)
	qs := queries.Instances()
	for _, first := range []struct {
		name    string
		measure sim.Func
	}{{"trigram", sim.Trigram}, {"token-jaccard", sim.TokenJaccard}} {
		cfg := testConfig()
		cfg.Columns[0].Sim = first.measure
		cfg.Columns = append(cfg.Columns, Column{QueryAttr: "title", SetAttr: "name", Sim: sim.Affix, Weight: 1})
		r, err := NewResolver(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warm-up: grow the pooled scratch, the index probe buffer, and dst
		// to the fixture's high-water mark.
		var dst []Match
		total := 0
		for _, q := range qs {
			dst = r.ResolveAppend(q, dst[:0])
			total += len(dst)
		}
		if total == 0 {
			t.Fatalf("%s: fixture produced no matches; fixture broken", first.name)
		}
		for _, q := range qs[:8] {
			allocs := testing.AllocsPerRun(100, func() {
				dst = r.ResolveAppend(q, dst[:0])
			})
			if allocs != 0 {
				t.Errorf("%s: ResolveAppend(%s) allocates %.0f times per run, want 0", first.name, q.ID, allocs)
			}
		}
	}
}

// TestResolveSpanFinishedOnEveryPath: every resolution moma_live_resolves_total
// counts is timed in moma_live_resolve_seconds and its stages, the ones that
// end before scoring included — a record without a blocking value, and one
// whose blocking tokens no member has.
func TestResolveSpanFinishedOnEveryPath(t *testing.T) {
	queries, set := syntheticSets(30)
	r, err := NewResolver(set, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	seconds := obs.Default.Histogram("moma_live_resolve_seconds", "", nil)
	score := obs.Default.Histogram("moma_live_resolve_stage_seconds", "", nil, `stage="score"`)
	resolves0, seconds0, score0 := resolvesTotal.Load(), seconds.Count(), score.Count()
	mixed := []*model.Instance{
		queries.At(0),
		model.NewInstance("q-unknown", map[string]string{"title": "zzspan1 zzspan2 never added"}),
		model.NewInstance("q-empty", map[string]string{"authors": "author a thor"}),
		queries.At(1),
		model.NewInstance("q-blank", map[string]string{"title": ""}),
	}
	for _, q := range mixed {
		r.Resolve(q)
	}
	if _, err := r.AddResolve(model.NewInstance("g-unnamed", map[string]string{"year": "2001"})); err != nil {
		t.Fatal(err)
	}
	resolves := resolvesTotal.Load() - resolves0
	if resolves != uint64(len(mixed)+1) {
		t.Fatalf("moma_live_resolves_total rose by %d, want %d", resolves, len(mixed)+1)
	}
	if got := seconds.Count() - seconds0; got != resolves {
		t.Errorf("moma_live_resolve_seconds_count rose by %d for %d resolutions", got, resolves)
	}
	if got := score.Count() - score0; got != resolves {
		t.Errorf("moma_live_resolve_stage_seconds_count{stage=\"score\"} rose by %d for %d resolutions", got, resolves)
	}
}
