package match

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

func profColumnSet(n int) *model.ObjectSet {
	set := model.NewObjectSet(model.LDS{Source: "T", Type: model.Publication})
	for i := 0; i < n; i++ {
		set.AddNew(model.ID(fmt.Sprintf("p%d", i)), map[string]string{
			"title": fmt.Sprintf("profile column title %d", i),
		})
	}
	return set
}

// profileTraffic snapshots the profile-column counters so a test can assert
// the builds (misses) and reuses (hits) of the calls in between.
type profileTraffic struct{ hits, misses, invalidations uint64 }

func profileTrafficNow() profileTraffic {
	return profileTraffic{profileCacheHits.Load(), profileCacheMisses.Load(), profileCacheInvalidations.Load()}
}

func (p profileTraffic) since() profileTraffic {
	now := profileTrafficNow()
	return profileTraffic{now.hits - p.hits, now.misses - p.misses, now.invalidations - p.invalidations}
}

func TestProfileColumnHitsAndInvalidation(t *testing.T) {
	set := profColumnSet(10)
	ps := sim.ProfiledOf(sim.Trigram)
	t0 := profileTrafficNow()
	c1 := profileColumn(set, "title", ps)
	c2 := profileColumn(set, "title", ps)
	if got := t0.since(); got != (profileTraffic{hits: 1, misses: 1}) {
		t.Fatalf("build then reuse counted %+v", got)
	}
	if c1.Len() != set.Len() || &c1.Keys[0] != &c2.Keys[0] {
		t.Fatal("store must serve the same column slices")
	}

	// A different measure keys a different column.
	ps2 := sim.ProfiledOf(sim.Bigram)
	profileColumn(set, "title", ps2)
	if c := profileColumn(set, "title", ps); &c.Keys[0] != &c1.Keys[0] {
		t.Fatal("a distinct measure must not displace the first column")
	}
	if got := t0.since(); got != (profileTraffic{hits: 2, misses: 2}) {
		t.Fatalf("distinct measure should build its own column once: %+v", got)
	}

	// SetAttr invalidates both columns.
	set.SetAttr(0, "title", "changed title zero")
	c3 := profileColumn(set, "title", ps)
	if got := t0.since(); got != (profileTraffic{hits: 2, misses: 3, invalidations: 2}) {
		t.Fatalf("SetAttr must invalidate: %+v", got)
	}
	if want := sim.NewProfile(ps, "changed title zero"); ps.Compare(c3.At(0), want.Ref(), 0) != 1 || c3.Keys[0] != want.Key() {
		t.Fatal("rebuilt column did not pick up the mutation")
	}

	// Membership change (Add) invalidates too.
	set.AddNew("pX", map[string]string{"title": "a fresh arrival"})
	c4 := profileColumn(set, "title", ps)
	if got := t0.since(); got.misses != 4 || c4.Len() != set.Len() || len(c4.Keys) != set.Len() {
		t.Fatalf("Add must invalidate: %+v, len=%d/%d want %d", got, c4.Len(), len(c4.Keys), set.Len())
	}
}

// TestProfileColumnTracksCorpusVersion pins that a corpus-backed measure is
// never served a kept column: idfs shift with every Add/Remove, so its
// columns build per call, outside the store, and follow the corpus.
func TestProfileColumnTracksCorpusVersion(t *testing.T) {
	set := profColumnSet(5)
	corpus := sim.NewTFIDF()
	set.Each(func(in *model.Instance) bool {
		corpus.Add(in.Attr("title"))
		return true
	})
	ps := corpus.Profiled()
	t0 := profileTrafficNow()
	stale := profileColumn(set, "title", ps)
	corpus.Add("a brand new document shifting every idf")
	c := profileColumn(set, "title", ps)
	if got := t0.since(); got != (profileTraffic{}) {
		t.Fatalf("a corpus-backed measure must bypass the store: %+v", got)
	}
	if c.Keys != nil {
		t.Fatal("a TF-IDF column has no filter keys")
	}
	// The profiles built after the Add must reflect the new statistics:
	// against one query vector each scores as a fresh build's, and not as
	// the one built before.
	fresh := buildProfileColumn(set, "title", ps)
	q := sim.NewProfile(ps, "profile column title 1")
	for i := range fresh.Len() {
		if got, want := ps.Compare(c.At(i), q.Ref(), 0), ps.Compare(fresh.At(i), q.Ref(), 0); got != want {
			t.Fatalf("profile %d scores %v, fresh build %v", i, got, want)
		}
		if i == 0 && ps.Compare(c.At(i), q.Ref(), 0) == ps.Compare(stale.At(i), q.Ref(), 0) {
			t.Fatalf("profile %d scores as it did before the corpus changed", i)
		}
	}
}

// uncomparableSim wraps a keyed measure in a dynamic type that cannot be a
// map key; it must bypass the store rather than panic.
type uncomparableSim struct {
	sim.Keyed
	pad []int
}

func TestProfileColumnSkipsUncomparableMeasures(t *testing.T) {
	set := profColumnSet(5)
	inner := sim.ProfiledOf(sim.Trigram)
	ps := uncomparableSim{Keyed: inner.(sim.Keyed), pad: []int{1}}
	t0 := profileTrafficNow()
	c1 := profileColumn(set, "title", ps)
	c2 := profileColumn(set, "title", ps)
	if &c1.Keys[0] == &c2.Keys[0] {
		t.Fatal("uncomparable measures must build on every call")
	}
	if got := t0.since(); got != (profileTraffic{}) {
		t.Fatalf("uncomparable measures must bypass the store: %+v", got)
	}
}

// TestMatchersShareProfileColumns pins the end-to-end effect: two matchers
// over the same inputs and measure score from one kept column per side and
// produce identical mappings.
func TestMatchersShareProfileColumns(t *testing.T) {
	a, b := profColumnSet(20), profColumnSet(20)
	m1 := &Attribute{AttrA: "title", AttrB: "title", Sim: sim.Trigram, Threshold: 0.5}
	m2 := &Attribute{AttrA: "title", AttrB: "title", Sim: sim.Trigram, Threshold: 0.5}
	t0 := profileTrafficNow()
	r1, err := m1.Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := t0.since(); got != (profileTraffic{hits: 2, misses: 2}) {
		t.Fatalf("second matcher must reuse both columns: %+v", got)
	}
	if !r1.Equal(r2, 0) {
		t.Fatal("kept profile columns changed match results")
	}
}

// TestTokenMeasureBehindTokenBlocking pins what blocking and scoring share
// when a token measure sits behind token blocking on the same attribute: the
// token column is the blocker's (one build per side, ever), the profile
// build tokenizes for itself, and both intern the same tokens — so the
// global term dictionary grows by exactly the fixture's new tokens.
func TestTokenMeasureBehindTokenBlocking(t *testing.T) {
	a := model.NewObjectSet(model.LDS{Source: "RA", Type: model.Publication})
	b := model.NewObjectSet(model.LDS{Source: "RB", Type: model.Publication})
	for i := 0; i < 8; i++ {
		title := fmt.Sprintf("zqreuse%d zqshared zqstem%d", i, i%3)
		a.AddNew(model.ID(fmt.Sprintf("a%d", i)), map[string]string{"title": title})
		b.AddNew(model.ID(fmt.Sprintf("b%d", i)), map[string]string{"title": title + " zqtail"})
	}
	// The dictionary is process-global: count the fixture's tokens it does
	// not know yet (all 13 distinct ones on a first run, none on a -count=2
	// rerun) — that is what one tokenization per value interns.
	unknown := make(map[string]bool)
	b.Each(func(in *model.Instance) bool {
		for _, tok := range sim.Tokens(in.Attr("title")) {
			if _, ok := sim.Terms.Lookup(tok); !ok {
				unknown[tok] = true
			}
		}
		return true
	})
	distinctTokens := len(unknown)
	bl := block.TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 2}
	// The registry hands back the series block registered at init.
	tokHits := obs.Default.Counter("moma_blockcache_hits_total", "", `col="tokens"`)
	tokMisses := obs.Default.Counter("moma_blockcache_misses_total", "", `col="tokens"`)
	terms, misses0 := sim.Terms.Len(), tokMisses.Load()

	jaccard := &Attribute{AttrA: "title", AttrB: "title", Sim: sim.TokenJaccard, Threshold: 0.5, Blocker: bl}
	r1, err := jaccard.Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() < 8 {
		t.Fatalf("fixture should match every twin, got %d correspondences", r1.Len())
	}
	if got := tokMisses.Load() - misses0; got != 2 {
		t.Fatalf("token column built %d times, want once per side", got)
	}
	if got := sim.Terms.Len() - terms; got != distinctTokens {
		t.Fatalf("term dictionary grew by %d, want the fixture's %d new tokens", got, distinctTokens)
	}

	// A second token measure builds its own profile columns; the blocker's
	// two token-column fetches hit and nothing new is interned.
	hits1 := tokHits.Load()
	dice := &Attribute{AttrA: "title", AttrB: "title", Sim: sim.TokenDice, Threshold: 0.5, Blocker: bl}
	if _, err := dice.Match(a, b); err != nil {
		t.Fatal(err)
	}
	if hits, misses := tokHits.Load()-hits1, tokMisses.Load()-misses0; hits != 2 || misses != 2 {
		t.Fatalf("second token measure: +%d token hits (want 2), %d misses in total (want 2)", hits, misses)
	}
	if sim.Terms.Len()-terms != distinctTokens {
		t.Fatal("a second measure over the same values must not intern anything")
	}
}
