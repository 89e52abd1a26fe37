package sources

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/mapping"
	"repro/internal/model"
)

// Source bundles one physical data source: its object sets plus the
// association mappings that "already exist in data sources and can thus be
// utilized for object matching" (§2.2) — publication lists per venue and
// author, and the co-author relationship.
type Source struct {
	Name    model.PDS
	Pubs    *model.ObjectSet
	Authors *model.ObjectSet
	Venues  *model.ObjectSet // nil for Google Scholar

	VenuePub  *mapping.Mapping // nil for Google Scholar
	PubVenue  *mapping.Mapping // nil for Google Scholar
	AuthorPub *mapping.Mapping
	PubAuthor *mapping.Mapping
	CoAuthor  *mapping.Mapping // nil for Google Scholar
}

// Perfect holds the ground-truth same-mappings the evaluation compares
// against — the generator's replacement for the paper's "manually
// determined perfect mappings" (§5.1).
type Perfect struct {
	PubDBLPACM     *mapping.Mapping
	PubDBLPGS      *mapping.Mapping
	PubGSACM       *mapping.Mapping
	VenueDBLPACM   *mapping.Mapping
	AuthorDBLPACM  *mapping.Mapping
	AuthorDupsDBLP *mapping.Mapping
}

// Dataset is the full generated evaluation setting.
type Dataset struct {
	Cfg   Config
	World *World

	DBLP *Source
	ACM  *Source
	GS   *Source

	// GSLinksACM is the pre-existing low-recall GS->ACM link mapping
	// ("Google Scholar links its publications to ACM", §2.2/§5.3).
	GSLinksACM *mapping.Mapping

	Perfect Perfect
}

// Standard logical sources of the generated world.
var (
	DBLPPub = model.LDS{Source: "DBLP", Type: model.Publication}
	DBLPAut = model.LDS{Source: "DBLP", Type: model.Author}
	DBLPVen = model.LDS{Source: "DBLP", Type: model.Venue}
	ACMPub  = model.LDS{Source: "ACM", Type: model.Publication}
	ACMAut  = model.LDS{Source: "ACM", Type: model.Author}
	ACMVen  = model.LDS{Source: "ACM", Type: model.Venue}
	GSPub   = model.LDS{Source: "GS", Type: model.Publication}
	GSAut   = model.LDS{Source: "GS", Type: model.Author}
)

// Generate builds the world for cfg and derives the three sources with
// their dirtiness plus all perfect mappings.
func Generate(cfg Config) *Dataset {
	return Derive(GenerateWorld(cfg))
}

// Derive derives the physical sources from a generated world. Derivation
// uses its own rng stream (Seed+1) so world generation stays independent of
// dirtiness decisions.
func Derive(w *World) *Dataset {
	rng := rand.New(rand.NewSource(w.Cfg.Seed + 1))
	d := &Dataset{Cfg: w.Cfg, World: w}
	dd := newDeriver(w, rng)
	d.DBLP = dd.deriveDBLP()
	d.ACM = dd.deriveACM()
	d.GS, d.GSLinksACM = dd.deriveGS()
	d.Perfect = dd.perfect
	return d
}

// deriver carries the shared id bookkeeping between source derivations.
//
// The deriver creates every instance itself, so it holds each id beside its
// model.IDs ordinal and builds its mappings on ordinals. Every mapping whose
// pairs are distinct by construction is built as columns (rows), so no pair
// index exists until a reader asks for one: VenuePub, PubVenue, AuthorPub and
// PubAuthor of each source, the GS links and all Perfect mappings. CoAuthor
// is not: two authors share many publications, so its pairs repeat, and it
// keeps AddMaxOrd's first row per pair.
type deriver struct {
	w   *World
	rng *rand.Rand

	// id tables, indexed by world index; a slot without an id is an
	// instance the source lacks.
	dblpPub []idSlot
	dblpVen []idSlot
	dblpAut []idSlot // primary spelling
	dblpAlt []idSlot // duplicate spelling
	acmPub  []idSlot
	acmVen  []idSlot
	acmAut  []idSlot
	acmVar  []idSlot

	perfect Perfect
}

func newDeriver(w *World, rng *rand.Rand) *deriver {
	return &deriver{
		w: w, rng: rng,
		dblpPub: make([]idSlot, len(w.Pubs)),
		dblpVen: make([]idSlot, len(w.Venues)),
		dblpAut: make([]idSlot, len(w.Authors)),
		dblpAlt: make([]idSlot, len(w.Authors)),
		acmPub:  make([]idSlot, len(w.Pubs)),
		acmVen:  make([]idSlot, len(w.Venues)),
		acmAut:  make([]idSlot, len(w.Authors)),
		acmVar:  make([]idSlot, len(w.Authors)),
	}
}

// idSlot is a derived instance's id and, once a mapping row used it, its
// model.IDs ordinal.
type idSlot struct {
	id       model.ID
	ord      uint32
	interned bool
}

// ordinal interns the slot's id on first use. Interning where a row first
// uses an id, not where the instance is made, gives model.IDs the ordinal
// order that adding the rows one by one by id gave.
func (s *idSlot) ordinal() uint32 {
	if !s.interned {
		s.ord, s.interned = model.IDs.Ord(s.id), true
	}
	return s.ord
}

// rows holds a mapping's rows as columns, every similarity 1. Its caller
// adds each pair once: the mapping it builds has no pair index to dedup by.
type rows struct {
	dom, rng []uint32
	sim      []float64
}

func newRows(n int) *rows {
	return &rows{dom: make([]uint32, 0, n), rng: make([]uint32, 0, n), sim: make([]float64, 0, n)}
}

func (r *rows) add(d, g uint32) {
	r.dom = append(r.dom, d)
	r.rng = append(r.rng, g)
	r.sim = append(r.sim, 1)
}

func (r *rows) mapping(domain, rng model.LDS, mtype model.MappingType) *mapping.Mapping {
	return mapping.FromColumns(domain, rng, mtype, r.dom, r.rng, r.sim)
}

// addAuthors adds a publication's author rows and its co-author rows.
func addAuthors(autPub, pubAut *rows, coAuthor *mapping.Mapping, pub *idSlot, auts []*idSlot) {
	for i, a := range auts {
		ao := a.ordinal()
		autPub.add(ao, pub.ordinal())
		pubAut.add(pub.ordinal(), ao)
		for j, other := range auts {
			if i != j && a.id != other.id {
				coAuthor.AddMaxOrd(ao, other.ordinal(), 1)
			}
		}
	}
}

// venueDBLPID builds DBLP's hierarchical venue keys.
func venueDBLPID(v *VenueTruth) model.ID {
	if v.Kind == Conference {
		return model.ID(fmt.Sprintf("conf/%s/%d", v.slug(), v.Year))
	}
	return model.ID(fmt.Sprintf("journals/%s/%d-%d", v.slug(), v.Volume, v.Issue))
}

// renderAuthors joins author display names.
func renderAuthors(names []string) string { return strings.Join(names, ", ") }

// venueAttrs are the attributes of a venue, DBLP's and ACM's alike.
var venueAttrs = []string{"name", "kind", "series", "year"}

// members collects the members of one set as value columns, in the order
// they are added, for model.NewObjectSetFromColumns.
type members struct {
	names []string
	ids   []model.ID
	vals  [][]string
	has   [][]bool
}

func newMembers(names ...string) *members {
	return &members{names: names, vals: make([][]string, len(names)), has: make([][]bool, len(names))}
}

// add appends the member id holding vals, one per name, all present.
func (m *members) add(id model.ID, vals ...string) {
	m.ids = append(m.ids, id)
	for c, v := range vals {
		m.vals[c], m.has[c] = append(m.vals[c], v), append(m.has[c], true)
	}
}

// lack makes the member added last lack the attribute names[c].
func (m *members) lack(c int) {
	last := len(m.ids) - 1
	m.vals[c][last], m.has[c][last] = "", false
}

// set returns the set of the members over lds.
func (m *members) set(lds model.LDS) *model.ObjectSet {
	return model.NewObjectSetFromColumns(lds, m.ids, m.names, m.vals, m.has)
}

// deriveDBLP materializes the curated, complete DBLP source.
func (dd *deriver) deriveDBLP() *Source {
	w := dd.w
	s := &Source{
		Name:     "DBLP",
		CoAuthor: mapping.New(DBLPAut, DBLPAut, "CoAuthor"),
	}
	venues, authors := newMembers(venueAttrs...), newMembers("name")
	for _, v := range w.Venues {
		id := venueDBLPID(v)
		dd.dblpVen[v.Idx].id = id
		venues.add(id, v.DBLPName(), string(v.Kind), v.Series, fmt.Sprint(v.Year))
	}
	s.Venues = venues.set(DBLPVen)
	for _, a := range w.Authors {
		id := model.ID(fmt.Sprintf("dblp:a:%05d", a.Idx))
		dd.dblpAut[a.Idx].id = id
		authors.add(id, a.Name())
		if a.DupSpelling != "" {
			alt := model.ID(fmt.Sprintf("dblp:a:%05db", a.Idx))
			dd.dblpAlt[a.Idx].id = alt
			authors.add(alt, a.DupSpelling)
		}
	}
	s.Authors = authors.set(DBLPAut)
	venPub, pubVen := newRows(len(w.Pubs)), newRows(len(w.Pubs))
	autPub, pubAut := newRows(0), newRows(0)
	perVenue := make([]int, len(w.Venues))
	dupSeen := make([]int, len(w.Authors)) // alternating spelling assignment per dup author
	var names []string
	var auts []*idSlot
	pubs := newMembers("title", "year", "pages", "authors", "venue", "kind")
	for _, p := range w.Pubs {
		ven := &dd.dblpVen[p.Venue.Idx]
		perVenue[p.Venue.Idx]++
		pub := &dd.dblpPub[p.Idx]
		pub.id = model.ID(fmt.Sprintf("%s/p%d", ven.id, perVenue[p.Venue.Idx]))

		// Choose the spelling each duplicate author uses on this paper.
		// Alternating guarantees both spellings actually occur, which is
		// what makes duplicates detectable via shared co-authors.
		names, auts = names[:0], auts[:0]
		for _, a := range p.Authors {
			aut := &dd.dblpAut[a.Idx]
			name := a.Name()
			if a.DupSpelling != "" {
				if dupSeen[a.Idx]%2 == 1 {
					aut = &dd.dblpAlt[a.Idx]
					name = a.DupSpelling
				}
				dupSeen[a.Idx]++
			}
			names = append(names, name)
			auts = append(auts, aut)
		}
		pubs.add(pub.id, p.Title, fmt.Sprint(p.Year), fmt.Sprintf("%d-%d", p.PageFrom, p.PageTo),
			renderAuthors(names), p.Venue.DBLPName(), string(p.Venue.Kind))
		v := ven.ordinal()
		venPub.add(v, pub.ordinal())
		pubVen.add(pub.ordinal(), v)
		addAuthors(autPub, pubAut, s.CoAuthor, pub, auts)
	}
	s.Pubs = pubs.set(DBLPPub)
	s.VenuePub = venPub.mapping(DBLPVen, DBLPPub, "VenuePub")
	s.PubVenue = pubVen.mapping(DBLPPub, DBLPVen, "PubVenue")
	s.AuthorPub = autPub.mapping(DBLPAut, DBLPPub, "AuthorPub")
	s.PubAuthor = pubAut.mapping(DBLPPub, DBLPAut, "PubAuthor")

	// Perfect duplicate-author mapping (Table 9 ground truth), symmetric.
	// Rows are added in ascending world index so the mapping's row order is
	// a pure function of the seed.
	dups := newRows(0)
	for i := range dd.dblpAlt {
		if alt := &dd.dblpAlt[i]; alt.id != "" {
			prim := dd.dblpAut[i].ordinal()
			dups.add(prim, alt.ordinal())
			dups.add(alt.ordinal(), prim)
		}
	}
	dd.perfect.AuthorDupsDBLP = dups.mapping(DBLPAut, DBLPAut, model.SameMappingType)
	return s
}

// deriveACM materializes ACM DL: complete per-venue lists but missing the
// configured VLDB years, an exact-count random trim, light title noise and
// author name variants.
func (dd *deriver) deriveACM() *Source {
	w := dd.w
	s := &Source{
		Name:     "ACM",
		CoAuthor: mapping.New(ACMAut, ACMAut, "CoAuthor"),
	}
	droppedYear := make(map[int]bool)
	for _, y := range w.Cfg.ACMDropVLDBYears {
		droppedYear[y] = true
	}
	venueDropped := func(v *VenueTruth) bool {
		return v.Kind == Conference && v.Series == "VLDB" && droppedYear[v.Year]
	}
	venues, authors := newMembers(venueAttrs...), newMembers("name")
	for _, v := range w.Venues {
		if venueDropped(v) {
			continue
		}
		id := model.ID(fmt.Sprintf("V-%06d", 600000+v.Idx))
		dd.acmVen[v.Idx].id = id
		venues.add(id, v.ACMName(), string(v.Kind), v.Series, fmt.Sprint(v.Year))
	}
	s.Venues = venues.set(ACMVen)
	for _, a := range w.Authors {
		id := model.ID(fmt.Sprintf("A-%05d", a.Idx))
		dd.acmAut[a.Idx].id = id
		authors.add(id, a.Name())
		if a.ACMVariant != "" {
			vid := model.ID(fmt.Sprintf("A-%05dv", a.Idx))
			dd.acmVar[a.Idx].id = vid
			authors.add(vid, a.ACMVariant)
		}
	}
	s.Authors = authors.set(ACMAut)

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

	venPub, pubVen := newRows(len(included)), newRows(len(included))
	autPub, pubAut := newRows(0), newRows(0)
	var names []string
	var auts []*idSlot
	pubs := newMembers("name", "year", "citations", "authors", "venue", "kind")
	for _, p := range included {
		pub := &dd.acmPub[p.Idx]
		pub.id = model.ID(fmt.Sprintf("P-%06d", 600000+p.Idx))
		title := p.Title
		if dd.rng.Float64() < w.Cfg.ACMTitleTypoRate {
			title = corruptACMTitle(dd.rng, title)
		}
		names, auts = names[:0], auts[:0]
		for _, a := range p.Authors {
			aut := &dd.acmAut[a.Idx]
			name := a.Name()
			if a.ACMVariant != "" && dd.rng.Float64() < 0.5 {
				aut = &dd.acmVar[a.Idx]
				name = a.ACMVariant
			}
			names = append(names, name)
			auts = append(auts, aut)
		}
		citations := p.Citations + dd.rng.Intn(3)
		ven := &dd.acmVen[p.Venue.Idx]
		pubs.add(pub.id, title, fmt.Sprint(p.Year), fmt.Sprint(citations),
			renderAuthors(names), p.Venue.ACMName(), string(p.Venue.Kind))
		v := ven.ordinal()
		venPub.add(v, pub.ordinal())
		pubVen.add(pub.ordinal(), v)
		addAuthors(autPub, pubAut, s.CoAuthor, pub, auts)
	}
	s.Pubs = pubs.set(ACMPub)
	s.VenuePub = venPub.mapping(ACMVen, ACMPub, "VenuePub")
	s.PubVenue = pubVen.mapping(ACMPub, ACMVen, "PubVenue")
	s.AuthorPub = autPub.mapping(ACMAut, ACMPub, "AuthorPub")
	s.PubAuthor = pubAut.mapping(ACMPub, ACMAut, "PubAuthor")

	// Perfect DBLP-ACM mappings, rows in ascending world index for
	// seed-deterministic row order.
	pubSame := newRows(len(included))
	for i := range dd.acmPub {
		if acm := &dd.acmPub[i]; acm.id != "" {
			pubSame.add(dd.dblpPub[i].ordinal(), acm.ordinal())
		}
	}
	dd.perfect.PubDBLPACM = pubSame.mapping(DBLPPub, ACMPub, model.SameMappingType)

	venSame := newRows(len(w.Venues))
	for i := range dd.acmVen {
		if acm := &dd.acmVen[i]; acm.id != "" {
			venSame.add(dd.dblpVen[i].ordinal(), acm.ordinal())
		}
	}
	dd.perfect.VenueDBLPACM = venSame.mapping(DBLPVen, ACMVen, model.SameMappingType)

	autSame := newRows(len(w.Authors))
	for _, a := range w.Authors {
		dblpIDs := []*idSlot{&dd.dblpAut[a.Idx]}
		if alt := &dd.dblpAlt[a.Idx]; alt.id != "" {
			dblpIDs = append(dblpIDs, alt)
		}
		acmIDs := []*idSlot{&dd.acmAut[a.Idx]}
		if v := &dd.acmVar[a.Idx]; v.id != "" {
			acmIDs = append(acmIDs, v)
		}
		for _, d := range dblpIDs {
			for _, m := range acmIDs {
				autSame.add(d.ordinal(), m.ordinal())
			}
		}
	}
	dd.perfect.AuthorDBLPACM = autSame.mapping(DBLPAut, ACMAut, model.SameMappingType)
	return s
}

// deriveGS materializes the Google Scholar simulation: duplicate entries
// per publication with heavy extraction noise, merged title twins, noise
// documents, initial-only truncated author lists, and the pre-existing
// low-recall link mapping to ACM.
func (dd *deriver) deriveGS() (*Source, *mapping.Mapping) {
	w := dd.w
	s := &Source{Name: "GS"}
	// A noise document has no venue or citations, and some entries lack
	// their year.
	pubs, authors := newMembers("title", "authors", "venue", "citations", "year"), newMembers("name")
	autPub, pubAut := newRows(0), newRows(0)
	links, pubDBLPGS, pubGSACM := newRows(0), newRows(0), newRows(0)

	gsAuthors := make(map[string]*idSlot)
	authorID := func(name string) *idSlot {
		if a, ok := gsAuthors[name]; ok {
			return a
		}
		a := &idSlot{id: model.ID(fmt.Sprintf("gs:a:%06d", len(gsAuthors)))}
		gsAuthors[name] = a
		authors.add(a.id, name)
		return a
	}

	var nextEntry int
	var names []string
	var auts []*idSlot
	newEntry := func(truths []*PubTruth) {
		p := truths[0]
		entry := idSlot{id: model.ID(fmt.Sprintf("gs:%06d", nextEntry))}
		nextEntry++
		title := corruptGSTitle(dd.rng, p.Title, w.Cfg)
		// Possibly truncated, initial-only author list.
		authors := p.Authors
		if len(authors) > 1 && dd.rng.Float64() < w.Cfg.GSAuthorTruncateRate {
			keep := 1 + dd.rng.Intn(len(authors))
			authors = authors[:keep]
		}
		names, auts = names[:0], auts[:0]
		for _, a := range authors {
			n := gsAuthorName(a.Name())
			names = append(names, n)
			auts = append(auts, authorID(n))
		}
		venue := mangleVenue(dd.rng, p.Venue)
		pubs.add(entry.id, title, renderAuthors(names), venue, fmt.Sprint(p.Citations+dd.rng.Intn(15)), fmt.Sprint(p.Year))
		if dd.rng.Float64() < w.Cfg.GSMissingYearRate {
			pubs.lack(4)
		}
		for i, a := range auts {
			// Two authors can share one initial-only name; their pair is
			// one row, at the first one's position.
			if slices.Contains(auts[:i], a) {
				continue
			}
			ao := a.ordinal()
			autPub.add(ao, entry.ordinal())
			pubAut.add(entry.ordinal(), ao)
		}
		// Perfect rows: the entry corresponds to every truth publication it
		// represents (two for merged twins), on both the DBLP and ACM side.
		for _, t := range truths {
			pubDBLPGS.add(dd.dblpPub[t.Idx].ordinal(), entry.ordinal())
			if acm := &dd.acmPub[t.Idx]; acm.id != "" {
				e := entry.ordinal()
				pubGSACM.add(e, acm.ordinal())
				if dd.rng.Float64() < w.Cfg.GSLinkRecall {
					links.add(e, acm.ordinal())
				}
			}
		}
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
		noise = w.Cfg.GSTargetPublications - len(pubs.ids)
		if noise < 0 {
			noise = 0
		}
	}
	for i := 0; i < noise; i++ {
		doc := idSlot{id: model.ID(fmt.Sprintf("gs:n%06d", i))}
		first := firstNames[dd.rng.Intn(len(firstNames))]
		last := lastNames[dd.rng.Intn(len(lastNames))]
		name := gsAuthorName(first + " " + last)
		title, year := noiseTitle(dd.rng), ""
		if dd.rng.Float64() < 0.7 {
			year = fmt.Sprint(1980 + dd.rng.Intn(26))
		}
		pubs.add(doc.id, title, name, "", "", year)
		pubs.lack(2)
		pubs.lack(3)
		if year == "" {
			pubs.lack(4)
		}
		ao := authorID(name).ordinal()
		autPub.add(ao, doc.ordinal())
		pubAut.add(doc.ordinal(), ao)
	}

	s.Pubs, s.Authors = pubs.set(GSPub), authors.set(GSAut)
	s.AuthorPub = autPub.mapping(GSAut, GSPub, "AuthorPub")
	s.PubAuthor = pubAut.mapping(GSPub, GSAut, "PubAuthor")
	dd.perfect.PubDBLPGS = pubDBLPGS.mapping(DBLPPub, GSPub, model.SameMappingType)
	dd.perfect.PubGSACM = pubGSACM.mapping(GSPub, ACMPub, model.SameMappingType)
	return s, links.mapping(GSPub, ACMPub, model.SameMappingType)
}

// noiseTitle draws a title from a vocabulary disjoint from the database
// domain: GS noise documents are crawled papers from other CS areas, which
// share only generic words with real titles and rarely exceed a trigram
// threshold — matching the reality that the paper's GS title queries
// surfaced mostly-unrelated reference strings.
func noiseTitle(rng *rand.Rand) string {
	adj := noiseAdjectives[rng.Intn(len(noiseAdjectives))]
	noun := noiseNouns[rng.Intn(len(noiseNouns))]
	topic := noiseTopics[rng.Intn(len(noiseTopics))]
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%s %s in %s", adj, noun, topic)
	case 1:
		return fmt.Sprintf("%s for %s: %s Considerations", noun, topic, adj)
	case 2:
		return fmt.Sprintf("A Study of %s %s", adj, noun)
	default:
		return fmt.Sprintf("%s %s and %s", adj, noun, topic)
	}
}

var noiseAdjectives = []string{
	"Fault-Tolerant", "Low-Power", "Real-Time", "Interprocedural",
	"Wait-Free", "Type-Safe", "Energy-Aware", "Lock-Free", "Hierarchical",
	"Speculative", "Context-Sensitive", "Byzantine",
}

var noiseNouns = []string{
	"Garbage Collection", "Register Allocation", "Packet Scheduling",
	"Instruction Selection", "Thread Synchronization", "Page Migration",
	"Routing Protocols", "Congestion Avoidance", "Pointer Analysis",
	"Branch Prediction", "Interrupt Handling", "Memory Consistency",
	"Code Generation", "Process Checkpointing", "Signal Processing",
}

var noiseTopics = []string{
	"Embedded Controllers", "Wireless LANs", "Multicore Processors",
	"Virtual Machines", "Operating System Kernels", "Compiler Backends",
	"Network Switches", "Microarchitectures", "Distributed Shared Memory",
	"Real-Time Kernels", "Optical Networks", "Vector Units",
}
