package sources

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
)

// refDeriver is the derivation Derive ran before it built its mappings on
// ordinals: every row goes in through Mapping.Add by id, every instance
// through ObjectSet.AddNew. Its mappings intern through a private
// dictionary, so the oracle leaves model.IDs as Derive leaves it. It is the
// oracle of TestDeriveMatchesReference and TestDeriveInternOrder.
type refDeriver struct {
	w    *World
	rng  *rand.Rand
	dict *model.IDDict

	dblpPubID map[int]model.ID
	dblpVenID map[int]model.ID
	dblpAutID map[int]model.ID
	dblpAltID map[int]model.ID
	acmPubID  map[int]model.ID
	acmVenID  map[int]model.ID
	acmAutID  map[int]model.ID
	acmVarID  map[int]model.ID

	perfect Perfect
}

// refDerive derives w as Derive did, interning through dict.
func refDerive(w *World, dict *model.IDDict) *Dataset {
	dd := &refDeriver{
		w: w, rng: rand.New(rand.NewSource(w.Cfg.Seed + 1)), dict: dict,
		dblpPubID: make(map[int]model.ID),
		dblpVenID: make(map[int]model.ID),
		dblpAutID: make(map[int]model.ID),
		dblpAltID: make(map[int]model.ID),
		acmPubID:  make(map[int]model.ID),
		acmVenID:  make(map[int]model.ID),
		acmAutID:  make(map[int]model.ID),
		acmVarID:  make(map[int]model.ID),
	}
	d := &Dataset{Cfg: w.Cfg, World: w}
	d.DBLP = dd.deriveDBLP()
	d.ACM = dd.deriveACM()
	d.GS, d.GSLinksACM = dd.deriveGS()
	d.Perfect = dd.perfect
	return d
}

func (dd *refDeriver) newMapping(dom, rng model.LDS, mtype model.MappingType) *mapping.Mapping {
	return mapping.NewWithDict(dom, rng, mtype, dd.dict)
}

func (dd *refDeriver) newSame(dom, rng model.LDS) *mapping.Mapping {
	return dd.newMapping(dom, rng, model.SameMappingType)
}

func refSortedKeys(m map[int]model.ID) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (dd *refDeriver) deriveDBLP() *Source {
	w := dd.w
	s := &Source{
		Name:      "DBLP",
		Pubs:      model.NewObjectSet(DBLPPub),
		Authors:   model.NewObjectSet(DBLPAut),
		Venues:    model.NewObjectSet(DBLPVen),
		VenuePub:  dd.newMapping(DBLPVen, DBLPPub, "VenuePub"),
		PubVenue:  dd.newMapping(DBLPPub, DBLPVen, "PubVenue"),
		AuthorPub: dd.newMapping(DBLPAut, DBLPPub, "AuthorPub"),
		PubAuthor: dd.newMapping(DBLPPub, DBLPAut, "PubAuthor"),
		CoAuthor:  dd.newMapping(DBLPAut, DBLPAut, "CoAuthor"),
	}
	for _, v := range w.Venues {
		id := venueDBLPID(v)
		dd.dblpVenID[v.Idx] = id
		s.Venues.AddNew(id, map[string]string{
			"name":   v.DBLPName(),
			"kind":   string(v.Kind),
			"series": v.Series,
			"year":   fmt.Sprint(v.Year),
		})
	}
	for _, a := range w.Authors {
		id := model.ID(fmt.Sprintf("dblp:a:%05d", a.Idx))
		dd.dblpAutID[a.Idx] = id
		s.Authors.AddNew(id, map[string]string{"name": a.Name()})
		if a.DupSpelling != "" {
			alt := model.ID(fmt.Sprintf("dblp:a:%05db", a.Idx))
			dd.dblpAltID[a.Idx] = alt
			s.Authors.AddNew(alt, map[string]string{"name": a.DupSpelling})
		}
	}
	perVenue := make(map[int]int)
	dupSeen := make(map[int]int) // alternating spelling assignment per dup author
	for _, p := range w.Pubs {
		venID := dd.dblpVenID[p.Venue.Idx]
		perVenue[p.Venue.Idx]++
		id := model.ID(fmt.Sprintf("%s/p%d", venID, perVenue[p.Venue.Idx]))
		dd.dblpPubID[p.Idx] = id

		// Choose the spelling each duplicate author uses on this paper.
		// Alternating guarantees both spellings actually occur, which is
		// what makes duplicates detectable via shared co-authors.
		var names []string
		var autIDs []model.ID
		for _, a := range p.Authors {
			autID := dd.dblpAutID[a.Idx]
			name := a.Name()
			if a.DupSpelling != "" {
				if dupSeen[a.Idx]%2 == 1 {
					autID = dd.dblpAltID[a.Idx]
					name = a.DupSpelling
				}
				dupSeen[a.Idx]++
			}
			names = append(names, name)
			autIDs = append(autIDs, autID)
		}
		s.Pubs.AddNew(id, map[string]string{
			"title":   p.Title,
			"year":    fmt.Sprint(p.Year),
			"pages":   fmt.Sprintf("%d-%d", p.PageFrom, p.PageTo),
			"authors": renderAuthors(names),
			"venue":   p.Venue.DBLPName(),
			"kind":    string(p.Venue.Kind),
		})
		s.VenuePub.Add(venID, id, 1)
		s.PubVenue.Add(id, venID, 1)
		for i, autID := range autIDs {
			s.AuthorPub.Add(autID, id, 1)
			s.PubAuthor.Add(id, autID, 1)
			for j, other := range autIDs {
				if i != j && autID != other {
					s.CoAuthor.AddMax(autID, other, 1)
				}
			}
		}
	}
	// Perfect duplicate-author mapping (Table 9 ground truth), symmetric.
	// Rows are added in ascending world index so the mapping's row order is
	// a pure function of the seed.
	dups := dd.newSame(DBLPAut, DBLPAut)
	for _, idx := range refSortedKeys(dd.dblpAltID) {
		alt := dd.dblpAltID[idx]
		prim := dd.dblpAutID[idx]
		dups.Add(prim, alt, 1)
		dups.Add(alt, prim, 1)
	}
	dd.perfect.AuthorDupsDBLP = dups
	return s
}

func (dd *refDeriver) deriveACM() *Source {
	w := dd.w
	s := &Source{
		Name:      "ACM",
		Pubs:      model.NewObjectSet(ACMPub),
		Authors:   model.NewObjectSet(ACMAut),
		Venues:    model.NewObjectSet(ACMVen),
		VenuePub:  dd.newMapping(ACMVen, ACMPub, "VenuePub"),
		PubVenue:  dd.newMapping(ACMPub, ACMVen, "PubVenue"),
		AuthorPub: dd.newMapping(ACMAut, ACMPub, "AuthorPub"),
		PubAuthor: dd.newMapping(ACMPub, ACMAut, "PubAuthor"),
		CoAuthor:  dd.newMapping(ACMAut, ACMAut, "CoAuthor"),
	}
	droppedYear := make(map[int]bool)
	for _, y := range w.Cfg.ACMDropVLDBYears {
		droppedYear[y] = true
	}
	venueDropped := func(v *VenueTruth) bool {
		return v.Kind == Conference && v.Series == "VLDB" && droppedYear[v.Year]
	}
	for _, v := range w.Venues {
		if venueDropped(v) {
			continue
		}
		id := model.ID(fmt.Sprintf("V-%06d", 600000+v.Idx))
		dd.acmVenID[v.Idx] = id
		s.Venues.AddNew(id, map[string]string{
			"name":   v.ACMName(),
			"kind":   string(v.Kind),
			"series": v.Series,
			"year":   fmt.Sprint(v.Year),
		})
	}
	for _, a := range w.Authors {
		id := model.ID(fmt.Sprintf("A-%05d", a.Idx))
		dd.acmAutID[a.Idx] = id
		s.Authors.AddNew(id, map[string]string{"name": a.Name()})
		if a.ACMVariant != "" {
			vid := model.ID(fmt.Sprintf("A-%05dv", a.Idx))
			dd.acmVarID[a.Idx] = vid
			s.Authors.AddNew(vid, map[string]string{"name": a.ACMVariant})
		}
	}

	// Select included publications: everything outside dropped venues,
	// then trim randomly to the exact target.
	var included []*PubTruth
	for _, p := range w.Pubs {
		if !venueDropped(p.Venue) {
			included = append(included, p)
		}
	}
	if target := w.Cfg.ACMTargetPublications; target > 0 && len(included) > target {
		dd.rng.Shuffle(len(included), func(i, j int) { included[i], included[j] = included[j], included[i] })
		included = included[:target]
		sort.Slice(included, func(i, j int) bool { return included[i].Idx < included[j].Idx })
	} else if w.Cfg.ACMTargetPublications == 0 && w.Cfg.ACMExtraDropRate > 0 {
		kept := included[:0]
		for _, p := range included {
			if dd.rng.Float64() >= w.Cfg.ACMExtraDropRate {
				kept = append(kept, p)
			}
		}
		included = kept
	}

	for _, p := range included {
		id := model.ID(fmt.Sprintf("P-%06d", 600000+p.Idx))
		dd.acmPubID[p.Idx] = id
		title := p.Title
		if dd.rng.Float64() < w.Cfg.ACMTitleTypoRate {
			title = corruptACMTitle(dd.rng, title)
		}
		var names []string
		var autIDs []model.ID
		for _, a := range p.Authors {
			autID := dd.acmAutID[a.Idx]
			name := a.Name()
			if a.ACMVariant != "" && dd.rng.Float64() < 0.5 {
				autID = dd.acmVarID[a.Idx]
				name = a.ACMVariant
			}
			names = append(names, name)
			autIDs = append(autIDs, autID)
		}
		citations := p.Citations + dd.rng.Intn(3)
		venID := dd.acmVenID[p.Venue.Idx]
		s.Pubs.AddNew(id, map[string]string{
			"name":      title,
			"year":      fmt.Sprint(p.Year),
			"citations": fmt.Sprint(citations),
			"authors":   renderAuthors(names),
			"venue":     p.Venue.ACMName(),
			"kind":      string(p.Venue.Kind),
		})
		s.VenuePub.Add(venID, id, 1)
		s.PubVenue.Add(id, venID, 1)
		for i, autID := range autIDs {
			s.AuthorPub.Add(autID, id, 1)
			s.PubAuthor.Add(id, autID, 1)
			for j, other := range autIDs {
				if i != j && autID != other {
					s.CoAuthor.AddMax(autID, other, 1)
				}
			}
		}
	}

	// Perfect DBLP-ACM mappings, rows in ascending world index for
	// seed-deterministic row order.
	pubSame := dd.newSame(DBLPPub, ACMPub)
	for _, idx := range refSortedKeys(dd.acmPubID) {
		pubSame.Add(dd.dblpPubID[idx], dd.acmPubID[idx], 1)
	}
	dd.perfect.PubDBLPACM = pubSame

	venSame := dd.newSame(DBLPVen, ACMVen)
	for _, idx := range refSortedKeys(dd.acmVenID) {
		venSame.Add(dd.dblpVenID[idx], dd.acmVenID[idx], 1)
	}
	dd.perfect.VenueDBLPACM = venSame

	autSame := dd.newSame(DBLPAut, ACMAut)
	for _, a := range w.Authors {
		dblpIDs := []model.ID{dd.dblpAutID[a.Idx]}
		if alt, ok := dd.dblpAltID[a.Idx]; ok {
			dblpIDs = append(dblpIDs, alt)
		}
		acmIDs := []model.ID{dd.acmAutID[a.Idx]}
		if v, ok := dd.acmVarID[a.Idx]; ok {
			acmIDs = append(acmIDs, v)
		}
		for _, d := range dblpIDs {
			for _, m := range acmIDs {
				autSame.Add(d, m, 1)
			}
		}
	}
	dd.perfect.AuthorDBLPACM = autSame
	return s
}

func (dd *refDeriver) deriveGS() (*Source, *mapping.Mapping) {
	w := dd.w
	s := &Source{
		Name:      "GS",
		Pubs:      model.NewObjectSet(GSPub),
		Authors:   model.NewObjectSet(GSAut),
		AuthorPub: dd.newMapping(GSAut, GSPub, "AuthorPub"),
		PubAuthor: dd.newMapping(GSPub, GSAut, "PubAuthor"),
	}
	links := dd.newSame(GSPub, ACMPub)
	pubDBLPGS := dd.newSame(DBLPPub, GSPub)
	pubGSACM := dd.newSame(GSPub, ACMPub)

	gsAuthorID := make(map[string]model.ID)
	var nextAuthor int
	authorID := func(name string) model.ID {
		if id, ok := gsAuthorID[name]; ok {
			return id
		}
		id := model.ID(fmt.Sprintf("gs:a:%06d", nextAuthor))
		nextAuthor++
		gsAuthorID[name] = id
		s.Authors.AddNew(id, map[string]string{"name": name})
		return id
	}

	var nextEntry int
	newEntry := func(truths []*PubTruth) model.ID {
		p := truths[0]
		id := model.ID(fmt.Sprintf("gs:%06d", nextEntry))
		nextEntry++
		title := corruptGSTitle(dd.rng, p.Title, w.Cfg)
		// Possibly truncated, initial-only author list.
		authors := p.Authors
		if len(authors) > 1 && dd.rng.Float64() < w.Cfg.GSAuthorTruncateRate {
			keep := 1 + dd.rng.Intn(len(authors))
			authors = authors[:keep]
		}
		var names []string
		var autIDs []model.ID
		for _, a := range authors {
			n := gsAuthorName(a.Name())
			names = append(names, n)
			autIDs = append(autIDs, authorID(n))
		}
		attrs := map[string]string{
			"title":     title,
			"authors":   renderAuthors(names),
			"venue":     mangleVenue(dd.rng, p.Venue),
			"citations": fmt.Sprint(p.Citations + dd.rng.Intn(15)),
		}
		if dd.rng.Float64() >= w.Cfg.GSMissingYearRate {
			attrs["year"] = fmt.Sprint(p.Year)
		}
		s.Pubs.AddNew(id, attrs)
		for _, autID := range autIDs {
			s.AuthorPub.Add(autID, id, 1)
			s.PubAuthor.Add(id, autID, 1)
		}
		// Perfect rows: the entry corresponds to every truth publication it
		// represents (two for merged twins), on both the DBLP and ACM side.
		for _, t := range truths {
			pubDBLPGS.Add(dd.dblpPubID[t.Idx], id, 1)
			if acmID, ok := dd.acmPubID[t.Idx]; ok {
				pubGSACM.Add(id, acmID, 1)
				if dd.rng.Float64() < w.Cfg.GSLinkRecall {
					links.Add(id, acmID, 1)
				}
			}
		}
		return id
	}

	// Twin merge decisions: journal twins merged into the conference
	// entry's records share GS entries.
	mergedInto := make(map[int]bool) // twin pub idx -> merged
	for _, p := range w.Pubs {
		if p.TwinOf >= 0 && dd.rng.Float64() < w.Cfg.GSMergeTwinRate {
			mergedInto[p.Idx] = true
		}
	}
	twinsOf := make(map[int][]*PubTruth)
	for _, p := range w.Pubs {
		if p.TwinOf >= 0 && mergedInto[p.Idx] {
			twinsOf[p.TwinOf] = append(twinsOf[p.TwinOf], p)
		}
	}

	for _, p := range w.Pubs {
		if p.TwinOf >= 0 && mergedInto[p.Idx] {
			continue // represented by the conference paper's entries
		}
		truths := append([]*PubTruth{p}, twinsOf[p.Idx]...)
		n := w.Cfg.GSEntriesMin + dd.rng.Intn(w.Cfg.GSEntriesMax-w.Cfg.GSEntriesMin+1)
		for i := 0; i < n; i++ {
			newEntry(truths)
		}
	}

	// Noise documents: unrelated crawled references.
	noise := w.Cfg.GSNoiseDocs
	if w.Cfg.GSTargetPublications > 0 {
		noise = w.Cfg.GSTargetPublications - s.Pubs.Len()
		if noise < 0 {
			noise = 0
		}
	}
	for i := 0; i < noise; i++ {
		id := model.ID(fmt.Sprintf("gs:n%06d", i))
		first := firstNames[dd.rng.Intn(len(firstNames))]
		last := lastNames[dd.rng.Intn(len(lastNames))]
		name := gsAuthorName(first + " " + last)
		attrs := map[string]string{
			"title":   noiseTitle(dd.rng),
			"authors": name,
		}
		if dd.rng.Float64() < 0.7 {
			attrs["year"] = fmt.Sprint(1980 + dd.rng.Intn(26))
		}
		s.Pubs.AddNew(id, attrs)
		autID := authorID(name)
		s.AuthorPub.Add(autID, id, 1)
		s.PubAuthor.Add(id, autID, 1)
	}

	dd.perfect.PubDBLPGS = pubDBLPGS
	dd.perfect.PubGSACM = pubGSACM
	return s, links
}

// oracleWorlds are the worlds the derivation oracle runs on: three seeds
// each of the small and the paper-scale configuration.
func oracleWorlds() []Config {
	var out []Config
	for _, base := range []Config{SmallConfig(), PaperConfig()} {
		for i := range int64(3) {
			c := base
			c.Seed += i
			out = append(out, c)
		}
	}
	return out
}

// namedMappings lists a dataset's mappings under stable names.
func namedMappings(d *Dataset) []struct {
	name string
	m    *mapping.Mapping
} {
	type nm = struct {
		name string
		m    *mapping.Mapping
	}
	out := []nm{{"GSLinksACM", d.GSLinksACM}}
	for _, s := range []*Source{d.DBLP, d.ACM, d.GS} {
		for _, m := range []nm{
			{"VenuePub", s.VenuePub}, {"PubVenue", s.PubVenue}, {"AuthorPub", s.AuthorPub},
			{"PubAuthor", s.PubAuthor}, {"CoAuthor", s.CoAuthor},
		} {
			m.name = string(s.Name) + "." + m.name
			out = append(out, m)
		}
	}
	p := d.Perfect
	return append(out,
		nm{"Perfect.PubDBLPACM", p.PubDBLPACM}, nm{"Perfect.PubDBLPGS", p.PubDBLPGS},
		nm{"Perfect.PubGSACM", p.PubGSACM}, nm{"Perfect.VenueDBLPACM", p.VenueDBLPACM},
		nm{"Perfect.AuthorDBLPACM", p.AuthorDBLPACM}, nm{"Perfect.AuthorDupsDBLP", p.AuthorDupsDBLP})
}

// TestDeriveMatchesReference: Derive's mappings equal the reference's row
// by row (ids, similarity bits, order, endpoints and type), every mapping
// Derive builds has distinct pairs, and its object sets equal the
// reference's (ids, attributes, order).
func TestDeriveMatchesReference(t *testing.T) {
	for _, cfg := range oracleWorlds() {
		got := Derive(GenerateWorld(cfg))
		want := refDerive(GenerateWorld(cfg), model.NewIDDict())
		tag := fmt.Sprintf("seed %d", cfg.Seed)
		gm, wm := namedMappings(got), namedMappings(want)
		for i := range gm {
			g, w := gm[i].m, wm[i].m
			if (g == nil) != (w == nil) {
				t.Fatalf("%s: %s is nil %v, reference nil %v", tag, gm[i].name, g == nil, w == nil)
			}
			if g != nil {
				compareMappings(t, tag+": "+gm[i].name, g, w)
			}
		}
		for _, pair := range [][2]*Source{{got.DBLP, want.DBLP}, {got.ACM, want.ACM}, {got.GS, want.GS}} {
			g, w := pair[0], pair[1]
			compareSets(t, tag, g.Pubs, w.Pubs)
			compareSets(t, tag, g.Authors, w.Authors)
			if (g.Venues == nil) != (w.Venues == nil) {
				t.Fatalf("%s: %s venues nil %v, reference nil %v", tag, g.Name, g.Venues == nil, w.Venues == nil)
			}
			if g.Venues != nil {
				compareSets(t, tag, g.Venues, w.Venues)
			}
		}
	}
}

func compareMappings(t *testing.T, name string, got, want *mapping.Mapping) {
	t.Helper()
	if got.Domain() != want.Domain() || got.Range() != want.Range() || got.Type() != want.Type() {
		t.Fatalf("%s: %s→%s (%s), reference %s→%s (%s)", name, got.Domain(), got.Range(), got.Type(), want.Domain(), want.Range(), want.Type())
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, reference %d", name, got.Len(), want.Len())
	}
	for i := range got.Len() {
		g, w := got.At(i), want.At(i)
		if g.Domain != w.Domain || g.Range != w.Range || math.Float64bits(g.Sim) != math.Float64bits(w.Sim) {
			t.Fatalf("%s: row %d is %v, reference %v", name, i, g, w)
		}
	}
	seen := make(map[[2]uint32]bool, got.Len())
	got.EachOrd(func(d, r uint32, _ float64) bool {
		if seen[[2]uint32{d, r}] {
			t.Errorf("%s: pair (%s, %s) repeats", name, got.Dict().IDOf(d), got.Dict().IDOf(r))
			return false
		}
		seen[[2]uint32{d, r}] = true
		return true
	})
}

func compareSets(t *testing.T, tag string, got, want *model.ObjectSet) {
	t.Helper()
	if got.LDS() != want.LDS() || got.Len() != want.Len() {
		t.Fatalf("%s: %s has %d instances, reference %s has %d", tag, got.LDS(), got.Len(), want.LDS(), want.Len())
	}
	for i := range got.Len() {
		g, w := got.At(i), want.At(i)
		if g.ID != w.ID || got.IDAt(i) != w.ID || !reflect.DeepEqual(g.Attrs, w.Attrs) {
			t.Fatalf("%s: %s instance %d is %v, reference %v", tag, got.LDS(), i, g, w)
		}
	}
}

// deriveInternChild names the environment variable under which the test
// binary runs TestDeriveInternOrder's body in a process of its own.
const deriveInternChild = "SOURCES_DERIVE_INTERN_CHILD"

// TestDeriveInternOrder: Generate interns ids into model.IDs in the order
// the reference's per-row Adds interned them, one world after another. The
// body runs in a fresh process, whose model.IDs is empty when it starts.
func TestDeriveInternOrder(t *testing.T) {
	if os.Getenv(deriveInternChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDeriveInternOrder$")
		cmd.Env = append(os.Environ(), deriveInternChild+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
	if n := model.IDs.Len(); n != 0 {
		t.Fatalf("the child starts with %d ids interned", n)
	}
	ref := model.NewIDDict()
	for _, cfg := range oracleWorlds() {
		Generate(cfg)
		refDerive(GenerateWorld(cfg), ref)
		got, want := model.IDs.All(), ref.All()
		if len(got) != len(want) {
			t.Fatalf("seed %d: model.IDs holds %d ids, the reference dictionary %d", cfg.Seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: ordinal %d is %s, in the reference %s", cfg.Seed, i, got[i], want[i])
			}
		}
	}
}
