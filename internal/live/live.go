// Package live implements MOMA's online resolution subsystem: a resident,
// incrementally-maintained match state with a query API on top.
//
// Every other entry point in this repository is batch — matching one new
// instance against a known source would rebuild the token inverted index and
// re-score the whole set. A Resolver instead registers an ObjectSet once and
// keeps its derived structures resident: an incremental ordinal inverted
// index over the blocking attribute that holds each slot's blocking tokens
// (block.Index, the same structure the batch token blocking keeps),
// similarity-profile columns indexed by slot ordinal (sim.ProfileColumn:
// each slot's payload a span of one pointer-free slab per column — a
// title's trigram hashes, say — and for a set measure a dense filter key
// per slot beside it, which most candidates are rejected on without a slab
// read) and per-column TF-IDF corpora, with the value each slot registered
// in its corpus.
// NewResolver builds all of it in bulk, on every core: the blocking tokens
// in one column (sim.Dict.TokenColumn), the index in one build over them
// (block.NewIndex) and each profile column in one build
// (sim.BuildProfileColumn, serial when the measure interns); Add tokenizes,
// indexes and profiles one value, its payload in each slab's tail.
// Resolve then blocks, scores and thresholds one query record against the
// set in time proportional to its candidates, not to the set; Add and Remove
// update the resident structures in place instead of re-matching.
//
// Scoring is the batch matchers' own: a query blocked by shared tokens
// (block.TokenBlocking semantics) is one row of their candidate loop
// (match.Scan), scored as the weighted average of per-column similarities
// through the same sim.Weighted (match.MultiAttribute semantics), so it is
// bit-identical to a batch re-match with the same configuration — the
// differential tests in live_test.go pin this, against an oracle that
// scores every candidate in full: the resolver does not, it rejects most on
// their keys and passes each measure the floor the threshold leaves it,
// counting the candidates that ended early as pruned. The one
// deliberate divergence is TF-IDF: a batch TFIDFAttribute builds its corpus
// from both match inputs, while a Resolver's corpus covers the registered
// set only (queries arrive one at a time and must not shift document
// frequencies).
//
// A Resolver is safe for concurrent use: Resolve takes a read lock, Add and
// Remove a write lock, so a serving process interleaves lookups and updates
// freely. Slots are append-only with tombstones. Remove lets go of
// everything the instance brought — postings, blocking tokens, profile
// payloads, its id — and leaves only the slot's entries in the per-slot
// arrays (an empty span and a zero filter key, which rejects nothing,
// where the profile was); once tombstones outnumber the live instances
// (past a small floor) it compacts those arrays, each profile column and
// the blocking index, each in one rewrite of its slab
// (sim.ProfileColumn.Compact, block.Index.Compact), so resident memory
// stays proportional to the live set under unbounded churn. The payloads
// of members added and removed again, and a replaced slot's old one, are
// reclaimed by their column, which rewrites its slab's tail (or the whole
// slab) once such payloads outnumber the live ones there.
//
// Blocking tokens are interned in a dictionary private to the resolver
// (sim.Dict): Add interns the arriving instance's blocking tokens, and
// dropping the resolver releases that vocabulary. Column values profiled
// for scoring (token-set measures, TF-IDF corpora) intern into the
// process-global sim.Terms, which outlives any one resolver — that growth
// is bounded by the vocabulary of the data actually added. Query records
// intern nowhere: Resolve probes the blocking index and profiles every
// scored column lookup-only (sim.QueryInto), so an unbounded stream of
// distinct queries leaves both dictionaries untouched.
package live

import (
	"fmt"
	"sync"

	"repro/internal/block"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Column configures one attribute comparison, mirroring match.AttrPair:
// QueryAttr is read from query instances, SetAttr from registered instances.
type Column struct {
	QueryAttr, SetAttr string
	// Sim names the measure (see match.Attribute).
	Sim sim.Func
	// TFIDF scores the column under TF-IDF cosine over a resident corpus of
	// the registered set's values. Sim is then ignored.
	TFIDF bool
	// Weight is the column's share of the weighted average; 0 means 1.
	Weight float64
}

// Config configures a Resolver.
type Config struct {
	// BlockQueryAttr/BlockSetAttr drive token blocking: a query is a
	// candidate against the set instances sharing at least MinShared tokens
	// of these attributes. Empty values default to the first column's
	// attributes. MinShared < 1 means 1.
	BlockQueryAttr, BlockSetAttr string
	MinShared                    int
	// Threshold is the minimum weighted-average similarity of a Match.
	Threshold float64
	// Columns are the scored attribute comparisons.
	Columns []Column
}

// Match is one resolution result: a registered instance at or above the
// threshold. The tags are moma-serve's wire format, which carries the
// resolver's matches as they are.
type Match struct {
	ID  model.ID `json:"id"`
	Sim float64  `json:"sim"`
}

// colState is the resident per-column state.
type colState struct {
	cfg    Column
	ps     sim.ProfiledSim // the column's measure
	corpus *sim.TFIDF      // non-nil for TFIDF columns

	// col holds one profile per slot (the Resolver's ids and alive, and its
	// index's rows, are its sibling columns), the empty one for tombstones,
	// and a set measure's dense filter keys beside them (the zero key for
	// tombstones).
	col sim.ProfileColumn
	// docs holds, for a TFIDF column, the value each slot registered in the
	// corpus ("" for none and for tombstones): corpus removal and the
	// reprofile read it back.
	docs []string
}

// Resolver holds one registered object set in resident, incrementally
// maintained form. Create with NewResolver.
type Resolver struct {
	mu  sync.RWMutex
	lds model.LDS
	cfg Config

	minShared int
	cols      []colState
	scorer    *sim.Weighted // the columns' weighted mean against cfg.Threshold
	// filter is the first column's key test, covering any two members' keys
	// and a query's up to the largest member's; guarded by mu.
	filter sim.RowFilter

	ids       []model.ID       // slot -> id ("" for tombstones); guarded by mu
	slots     map[model.ID]int // id -> slot, alive instances only; guarded by mu
	alive     []bool           // slot liveness; guarded by mu
	liveCount int              // guarded by mu
	dict      *sim.Dict        // private term dictionary of the blocking index
	// ix indexes the blocking tokens of every slot, which it keeps as its
	// rows (nil for tombstones and empty values); guarded by mu.
	ix *block.Index
}

// NewResolver registers the object set under the configuration and builds
// the resident structures. The set is snapshotted: later mutations of the
// set are invisible to the resolver — route updates through Add and Remove.
func NewResolver(set *model.ObjectSet, cfg Config) (*Resolver, error) {
	if set == nil {
		return nil, fmt.Errorf("live: NewResolver needs an object set")
	}
	if len(cfg.Columns) == 0 {
		return nil, fmt.Errorf("live: config needs at least one column")
	}
	if cfg.BlockQueryAttr == "" {
		cfg.BlockQueryAttr = cfg.Columns[0].QueryAttr
	}
	if cfg.BlockSetAttr == "" {
		cfg.BlockSetAttr = cfg.Columns[0].SetAttr
	}
	if cfg.BlockQueryAttr == "" || cfg.BlockSetAttr == "" {
		return nil, fmt.Errorf("live: blocking attributes must not be empty")
	}
	r := &Resolver{
		lds:       set.LDS(),
		cfg:       cfg,
		minShared: cfg.MinShared,
		slots:     make(map[model.ID]int, set.Len()),
		dict:      sim.NewDict(),
	}
	if r.minShared < 1 {
		r.minShared = 1
	}
	r.cols = make([]colState, len(cfg.Columns))
	measures := make([]sim.ProfiledSim, len(cfg.Columns))
	weights := make([]float64, len(cfg.Columns))
	for i, c := range cfg.Columns {
		if c.QueryAttr == "" || c.SetAttr == "" {
			return nil, fmt.Errorf("live: column %d needs QueryAttr and SetAttr", i)
		}
		if c.Weight < 0 {
			return nil, fmt.Errorf("live: column %d has negative weight", i)
		}
		cs := colState{cfg: c}
		if weights[i] = c.Weight; c.Weight == 0 {
			weights[i] = 1
		}
		switch {
		case c.TFIDF:
			cs.corpus = sim.NewTFIDF()
			cs.ps = cs.corpus.Profiled()
		case c.Sim != nil:
			cs.ps = sim.ProfiledOf(c.Sim)
		default:
			return nil, fmt.Errorf("live: column %d has no similarity function", i)
		}
		r.cols[i], measures[i] = cs, cs.ps
	}
	r.scorer = sim.NewWeighted(measures, weights, cfg.Threshold)
	r.filter = r.scorer.RowFilter()
	// Bulk build: slot i is the set's ordinal i. The serial pass gives out
	// the slots and registers every corpus document; then the blocking
	// tokens, the index over them and each column are built whole, a corpus
	// column over its complete corpus — the per-arrival reprofile of Add
	// would make a TFIDF construction O(n²).
	n := set.Len()
	r.ids, r.alive = make([]model.ID, n), make([]bool, n)
	for i := range r.cols {
		if c := &r.cols[i]; c.corpus != nil {
			c.docs = make([]string, n)
		}
	}
	for slot := range n {
		id := set.IDAt(slot)
		r.slots[id], r.ids[slot], r.alive[slot] = slot, id, true
		for i := range r.cols {
			if c := &r.cols[i]; c.corpus != nil {
				if v := set.Attr(slot, c.cfg.SetAttr); v != "" {
					c.corpus.Add(v)
					c.docs[slot] = v
				}
			}
		}
	}
	r.liveCount = n
	addsTotal.Add(uint64(n))
	instancesLive.Add(int64(n))
	r.ix = block.NewIndex(r.dict.TokenColumn(n, func(ord int) string { return set.Attr(ord, cfg.BlockSetAttr) }))
	for i := range r.cols {
		c := &r.cols[i]
		c.col = sim.BuildProfileColumn(c.ps, n, func(ord int) string { return set.Attr(ord, c.cfg.SetAttr) })
	}
	r.filter.Cover(2 * r.cols[0].col.MaxCard())
	return r, nil
}

// LDS returns the logical data source of the registered set.
func (r *Resolver) LDS() model.LDS { return r.lds }

// Len returns the number of live (added and not removed) instances.
func (r *Resolver) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.liveCount
}

// Has reports whether the id is live in the resolver.
func (r *Resolver) Has(id model.ID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.slots[id]
	return ok
}

// Resolve is ResolveAppend into a fresh slice, for callers that keep the
// result: it allocates proportionally to its matches, never to the set size.
//
//moma:readpath
func (r *Resolver) Resolve(q *model.Instance) []Match { return r.ResolveAppend(q, nil) }

// ResolveAppend blocks, scores and thresholds one query record against the
// registered set and appends the matches to dst, in the set's insertion
// order, with the exact similarities a batch matcher of the same
// configuration computes. It is the serving entry point: moma-serve's
// resolve handler (serve.handleResolve) calls it with a recycled dst[:0].
// When dst has capacity and every column's measure keeps no string in its
// profile and allocates nothing in Compare (the equality, n-gram, affix,
// token-set, TF-IDF and year measures), a warm ResolveAppend performs zero
// heap allocations; TestResolveAppendZeroAllocs pins that.
//
//moma:readpath
func (r *Resolver) ResolveAppend(q *model.Instance, dst []Match) []Match {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.resolveLocked(q, false, dst)
}

// resolveScratch holds the per-resolve working memory: the query's token
// IDs and normalization buffer and one one-slot profile and filter key per
// column. Pooled so concurrent warm resolves neither contend nor allocate.
type resolveScratch struct {
	norm  []byte
	toks  []uint32
	profs []sim.Profile
	keys  []sim.Key
	sc    sim.Scratch
	span  obs.Span
}

var scratchPool = sync.Pool{New: func() any { return new(resolveScratch) }}

// resolveLocked is Resolve under a held lock (any mode), appending matches
// to dst. asMember selects which attribute names the record is read under:
// false for query-side records (Resolve, ResolveSet), true for set-side
// records — an arriving member resolved against its peers (AddResolve)
// carries the set's attribute names, not the query schema's. Every
// resolution is counted and traced, the ones that end before scoring too.
//
// Callers hold mu.
func (r *Resolver) resolveLocked(q *model.Instance, asMember bool, dst []Match) []Match {
	resolvesTotal.Inc()
	scratch := scratchPool.Get().(*resolveScratch)
	defer scratchPool.Put(scratch)
	sp := &scratch.span
	sp.Begin()
	dst = r.scoreLocked(q, asMember, scratch, dst)
	resolveCandidates.Add(uint64(sp.Candidates))
	resolvePruned.Add(uint64(sp.Pruned))
	resolveMatches.Add(uint64(sp.Kept))
	resolveStages.Finish(sp, string(q.ID))
	return dst
}

// scoreLocked runs resolveLocked's stages — block, profile, score — in
// scratch, marking them on its span. A record without a blocking value, or
// whose blocking tokens no member has, ends before profiling. Scoring is
// one row of the batch matchers' candidate loop (match.Scan), whose sink
// appends Matches.
//
// Callers hold mu.
func (r *Resolver) scoreLocked(q *model.Instance, asMember bool, scratch *resolveScratch, dst []Match) []Match {
	sp := &scratch.span
	blockAttr := r.cfg.BlockQueryAttr
	if asMember {
		blockAttr = r.cfg.BlockSetAttr
	}
	blockVal := q.Attr(blockAttr)
	if blockVal == "" {
		return dst
	}
	// Lookup-only interning: query tokens never seen by an Add cannot block
	// to any candidate and are dropped without growing the dictionary.
	scratch.norm, scratch.toks = r.dict.AppendLookupTokenIDs(blockVal, scratch.norm, scratch.toks)
	toks := scratch.toks
	sp.Mark(stageBlock)
	if len(toks) == 0 {
		return dst
	}
	// Profile the query once per column, exactly as a batch profile build
	// does for every domain instance, into the pooled Profile slots, and key
	// each profile as its column keys the members'.
	if cap(scratch.profs) < len(r.cols) {
		scratch.profs = make([]sim.Profile, len(r.cols))
		scratch.keys = make([]sim.Key, len(r.cols))
	}
	profs, keys := scratch.profs[:len(r.cols)], scratch.keys[:len(r.cols)]
	for i := range r.cols {
		c := &r.cols[i]
		attr := c.cfg.QueryAttr
		if asMember {
			attr = c.cfg.SetAttr
		}
		sim.QueryInto(c.ps, q.Attr(attr), &profs[i], &scratch.sc)
		keys[i] = profs[i].Key()
	}
	sp.Mark(stageProfile)
	scan := match.Scan{
		Filter:  r.filter,
		RowKeys: keys,
		Keys:    r.cols[0].col.Keys,
		Score: func(_, ord int) (float64, bool) {
			s := r.scorer.Score(func(i int) (a, b sim.Ref) {
				return profs[i].Ref(), r.cols[i].col.At(ord)
			})
			return s, s >= r.cfg.Threshold
		},
		Sink: func(_, ord int, s float64) { dst = append(dst, Match{ID: r.ids[ord], Sim: s}) },
	}
	scan.Row(0)
	r.ix.EachCandidate(toks, r.minShared, scan.Candidate)
	sp.Candidates, sp.Kept, sp.Pruned = scan.Pairs, scan.Kept, scan.Pruned
	sp.Mark(stageScore)
	return dst
}

// ResolveSet resolves every instance of a query set and collects the
// results into a same-mapping from the query LDS to the registered LDS —
// the online counterpart of a batch Matcher.Match call. The matches are
// appended as (dom, rng, sim) columns in query order and load the mapping as
// they are: query ids are distinct and one resolve names each member once,
// so no pair repeats.
func (r *Resolver) ResolveSet(queries *model.ObjectSet) (*mapping.Mapping, error) {
	if !queries.LDS().SameType(r.lds) {
		return nil, fmt.Errorf("live: query set %s does not share the object type of %s", queries.LDS(), r.lds)
	}
	var dom, rng []uint32
	var sims []float64
	r.mu.RLock()
	defer r.mu.RUnlock()
	var dst []Match // reused across the queries
	// q is reused across the queries too: it holds the query attributes a
	// resolve reads, an absent one as "", which reads the same.
	q := &model.Instance{Attrs: make(map[string]string, len(r.cols)+1)}
	for ord := range queries.Len() {
		q.ID = queries.IDAt(ord)
		q.Attrs[r.cfg.BlockQueryAttr] = queries.Attr(ord, r.cfg.BlockQueryAttr)
		for i := range r.cols {
			a := r.cols[i].cfg.QueryAttr
			q.Attrs[a] = queries.Attr(ord, a)
		}
		dst = r.resolveLocked(q, false, dst[:0])
		if len(dst) == 0 {
			continue
		}
		d := model.IDs.Ord(q.ID)
		for _, m := range dst {
			dom = append(dom, d)
			rng = append(rng, model.IDs.Ord(m.ID))
			sims = append(sims, min(max(m.Sim, 0), 1))
		}
	}
	return mapping.FromColumns(queries.LDS(), r.lds, model.SameMappingType, dom, rng, sims), nil
}

// Add inserts the instance into the resident state: index postings, profile
// columns and TF-IDF corpora update in place. Adding an id that is already
// live replaces it. Cost is O(columns) plus the instance's token count;
// TF-IDF columns additionally reprofile the column (corpus statistics shift
// with every document), which is the documented price of corpus-backed
// measures online.
func (r *Resolver) Add(in *model.Instance) error {
	if in == nil || in.ID == "" {
		return fmt.Errorf("live: Add needs an instance with an id")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addLocked(in)
	return nil
}

// AddResolve resolves the instance against the current live members and
// then adds it — the arrival path of online deduplication: the result is
// the delta the instance contributes to the set's same-mapping, without
// re-matching anything already resolved. The arrival is a member record and
// is read under the set-side attribute names (SetAttr, BlockSetAttr). When
// the id is already live this is a replace: the previous version is dropped
// before resolving, so an instance never matches its own stale self.
func (r *Resolver) AddResolve(in *model.Instance) ([]Match, error) {
	if in == nil || in.ID == "" {
		return nil, fmt.Errorf("live: AddResolve needs an instance with an id")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if slot, live := r.slots[in.ID]; live {
		// The intermediate reprofile keeps corpus-backed columns exact for
		// the resolve below (the previous version is already gone).
		r.dropSlotLocked(slot, true)
	}
	matches := r.resolveLocked(in, true, nil)
	r.addLocked(in)
	return matches, nil
}

// addLocked inserts or replaces under a held write lock.
//
// Callers hold mu.
func (r *Resolver) addLocked(in *model.Instance) {
	slot, replacing := r.slots[in.ID]
	var droppedCorpus []bool
	if replacing {
		// Remember which corpus columns the drop will change, and skip the
		// drop's reprofile: nothing observes the intermediate state, and the
		// insertion below reprofiles once for drop and add together.
		droppedCorpus = make([]bool, len(r.cols))
		for i := range r.cols {
			c := &r.cols[i]
			droppedCorpus[i] = c.corpus != nil && r.alive[slot] && c.docs[slot] != ""
		}
		r.dropSlotLocked(slot, false)
	} else {
		slot = len(r.ids)
		r.ids = append(r.ids, "")
		r.alive = append(r.alive, false)
	}
	r.placeLocked(in, slot)
	for i := range r.cols {
		c := &r.cols[i]
		v := in.Attr(c.cfg.SetAttr)
		if c.corpus != nil {
			if !replacing {
				c.docs = append(c.docs, "")
			}
			changed := droppedCorpus != nil && droppedCorpus[i]
			if v != "" {
				c.corpus.Add(v)
				c.docs[slot] = v
				changed = true
			}
			if changed {
				// Every resident vector is stale once the corpus has moved.
				r.reprofileLocked(c)
				continue
			}
		}
		if replacing {
			c.col.Set(slot, v)
		} else {
			c.col.Append(v)
		}
	}
	// A member beyond the key table extends it here, under the write lock,
	// so that no resolve builds one; a longer query is tested past its end.
	r.filter.Cover(2 * r.cols[0].col.MaxCard())
}

// placeLocked makes in the live instance of slot and indexes its blocking
// tokens, under a held write lock: the one-instance form of NewResolver's
// bulk build.
//
// Callers hold mu.
func (r *Resolver) placeLocked(in *model.Instance, slot int) {
	r.slots[in.ID] = slot
	r.ids[slot] = in.ID
	r.alive[slot] = true
	r.liveCount++
	addsTotal.Inc()
	instancesLive.Add(1)
	r.ix.Set(slot, r.dict.TokenIDs(in.Attr(r.cfg.BlockSetAttr)))
}

// Remove tombstones the instance: its index postings disappear, its corpus
// contributions are reversed, and it can no longer match. It reports
// whether the id was live. Once tombstones outnumber the live instances
// (past compactMinDead) the slot arrays are compacted in place, so a
// resolver under unbounded add/remove churn keeps memory proportional to
// its live size instead of its history.
func (r *Resolver) Remove(id model.ID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, ok := r.slots[id]
	if !ok {
		return false
	}
	r.dropSlotLocked(slot, true)
	delete(r.slots, id)
	removesTotal.Inc()
	if dead := len(r.ids) - r.liveCount; dead >= compactMinDead && dead > r.liveCount {
		r.compactLocked()
	}
	return true
}

// compactMinDead is the tombstone floor below which compaction is not worth
// the rebuild; combined with the dead > live trigger it makes compaction
// cost amortized O(1) per Remove (each compaction drops at least half the
// slots, so at least compactMinDead removals separate two compactions).
const compactMinDead = 64

// compactLocked reclaims tombstoned slots under a held write lock: live
// slots move down in insertion order (so candidate streams keep yielding in
// the original arrival order), per-slot arrays are reallocated at the live
// size (releasing the grown backing arrays), and each profile column and
// the blocking index are compacted alike, each in one rewrite of its slab
// (sim.ProfileColumn.Compact, block.Index.Compact: the live payloads move
// into one fresh slab, releasing the bulk build's, which tombstones would
// otherwise pin). Profiles and corpus statistics move untouched — only slot
// numbers change — and each profile's key moves with it.
//
// Callers hold mu.
func (r *Resolver) compactLocked() {
	compactionsTotal.Inc()
	n := r.liveCount
	ids := make([]model.ID, 0, n)
	alive := make([]bool, 0, n)
	for slot := range r.ids {
		if r.alive[slot] {
			r.slots[r.ids[slot]] = len(ids)
			ids = append(ids, r.ids[slot])
			alive = append(alive, true)
		}
	}
	for i := range r.cols {
		c := &r.cols[i]
		c.col = c.col.Compact(r.alive)
		if c.docs != nil {
			docs := make([]string, 0, n)
			for slot, doc := range c.docs {
				if r.alive[slot] {
					docs = append(docs, doc)
				}
			}
			c.docs = docs
		}
	}
	r.ix = r.ix.Compact(r.alive)
	r.ids, r.alive = ids, alive
}

// dropSlotLocked reverses a slot's contributions under a held write lock.
// reprofile controls whether corpus-backed columns rebuild their resident
// vectors immediately; a caller that changes the corpus again right after
// (addLocked's replace path) passes false and reprofiles once at the end.
//
// Callers hold mu.
func (r *Resolver) dropSlotLocked(slot int, reprofile bool) {
	if !r.alive[slot] {
		return
	}
	r.alive[slot] = false
	r.ids[slot] = ""
	r.liveCount--
	instancesLive.Add(-1)
	r.ix.Set(slot, nil)
	for i := range r.cols {
		c := &r.cols[i]
		c.col.Drop(slot)
		if c.corpus != nil && c.docs[slot] != "" {
			c.corpus.Remove(c.docs[slot])
			c.docs[slot] = ""
			if reprofile {
				r.reprofileLocked(c)
			}
		}
	}
}

// reprofileLocked rebuilds a corpus-backed column after the corpus changed:
// TF-IDF weights of every document shift with any document-frequency
// change, so the column is rebuilt from the slots' documents eagerly —
// reads stay lock-free and exact. A tombstone's document is empty, and so
// is its profile, as Drop leaves it.
//
// Callers hold mu.
func (r *Resolver) reprofileLocked(c *colState) {
	c.col = sim.BuildProfileColumn(c.ps, len(c.docs), func(slot int) string { return c.docs[slot] })
}

// Stats summarizes the resident state.
type Stats struct {
	// Live is the number of live instances; Slots the allocated slot count
	// (tombstones included).
	Live, Slots int
	// IndexedDocs/IndexTerms size the blocking index.
	IndexedDocs, IndexTerms int
}

// Stats returns resident-state statistics.
func (r *Resolver) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Stats{
		Live:        r.liveCount,
		Slots:       len(r.ids),
		IndexedDocs: r.ix.Docs(),
		IndexTerms:  r.ix.Terms(),
	}
}

// String summarizes the resolver.
func (r *Resolver) String() string {
	st := r.Stats()
	return fmt.Sprintf("live.Resolver{%s, live: %d, slots: %d, index: %d docs/%d terms}",
		r.lds, st.Live, st.Slots, st.IndexedDocs, st.IndexTerms)
}
