package sources

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
)

// smallDataset is shared across tests; generation is deterministic. It is
// built on first use, so a test binary that runs none of its tests (one
// -run, a fuzz worker, a re-executed child) does not generate it.
var smallDataset = sync.OnceValue(func() *Dataset { return Generate(SmallConfig()) })

func TestDeterminism(t *testing.T) {
	a := Generate(SmallConfig())
	b := Generate(SmallConfig())
	if a.DBLP.Pubs.Len() != b.DBLP.Pubs.Len() || a.GS.Pubs.Len() != b.GS.Pubs.Len() {
		t.Fatal("same seed must give identical sizes")
	}
	idsA, idsB := a.DBLP.Pubs.IDs(), b.DBLP.Pubs.IDs()
	for i := range idsA {
		if idsA[i] != idsB[i] {
			t.Fatalf("pub id %d differs: %s vs %s", i, idsA[i], idsB[i])
		}
	}
	pa := a.DBLP.Pubs.Get(idsA[0])
	pb := b.DBLP.Pubs.Get(idsB[0])
	if pa.Attr("title") != pb.Attr("title") || pa.Attr("authors") != pb.Attr("authors") {
		t.Error("instance attributes must be identical across runs")
	}
	if !a.Perfect.PubDBLPACM.Equal(b.Perfect.PubDBLPACM, 0) {
		t.Error("perfect mappings must be identical across runs")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := SmallConfig()
	cfg.Seed = 43
	other := Generate(cfg)
	if other.DBLP.Pubs.Len() == smallDataset().DBLP.Pubs.Len() {
		// Sizes may coincide; compare first titles too.
		a := smallDataset().DBLP.Pubs.Get(smallDataset().DBLP.Pubs.IDs()[0]).Attr("title")
		b := other.DBLP.Pubs.Get(other.DBLP.Pubs.IDs()[0]).Attr("title")
		if a == b {
			t.Error("different seeds should produce different worlds")
		}
	}
}

func TestWorldShape(t *testing.T) {
	d := smallDataset()
	w := d.World
	if len(w.Venues) == 0 || len(w.Pubs) == 0 || len(w.Authors) == 0 {
		t.Fatal("world is empty")
	}
	// Venue arithmetic: conferences per year + journal issues per year.
	years := w.Cfg.YearEnd - w.Cfg.YearStart + 1
	wantVenues := years * len(w.Cfg.Conferences)
	for _, iss := range w.Cfg.JournalIssues {
		wantVenues += years * iss
	}
	if len(w.Venues) != wantVenues {
		t.Errorf("venues = %d, want %d", len(w.Venues), wantVenues)
	}
	// Twins share title and authors with their original.
	twins := 0
	for _, p := range w.Pubs {
		if p.TwinOf >= 0 {
			twins++
			orig := w.Pubs[p.TwinOf]
			if p.Title != orig.Title {
				t.Errorf("twin %d title mismatch", p.Idx)
			}
			if orig.Venue.Kind != Conference || p.Venue.Kind != Journal {
				t.Errorf("twin kinds wrong: %s -> %s", orig.Venue.Kind, p.Venue.Kind)
			}
			if len(p.Authors) != len(orig.Authors) {
				t.Errorf("twin %d authors differ", p.Idx)
			}
		}
	}
	if twins == 0 {
		t.Error("expected at least one conference/journal twin")
	}
}

func TestEveryAuthorPublishes(t *testing.T) {
	w := smallDataset().World
	used := make(map[int]bool)
	for _, p := range w.Pubs {
		for _, a := range p.Authors {
			used[a.Idx] = true
		}
	}
	for _, a := range w.Authors {
		if !used[a.Idx] {
			t.Errorf("author %d (%s) has no publication", a.Idx, a.Name())
		}
	}
}

func TestDBLPShape(t *testing.T) {
	d := smallDataset()
	if d.DBLP.Pubs.Len() != len(d.World.Pubs) {
		t.Errorf("DBLP pubs = %d, want %d (complete source)", d.DBLP.Pubs.Len(), len(d.World.Pubs))
	}
	if d.DBLP.Venues.Len() != len(d.World.Venues) {
		t.Errorf("DBLP venues = %d, want %d", d.DBLP.Venues.Len(), len(d.World.Venues))
	}
	wantAuthors := d.Cfg.TruthAuthors + d.Perfect.AuthorDupsDBLP.Len()/2
	if d.DBLP.Authors.Len() != wantAuthors {
		t.Errorf("DBLP authors = %d, want %d", d.DBLP.Authors.Len(), wantAuthors)
	}
	// Associations are consistent inverses.
	if d.DBLP.VenuePub.Len() != d.DBLP.PubVenue.Len() {
		t.Error("VenuePub and PubVenue must have equal size")
	}
	// PubVenue and PubAuthor carry the same correspondences as the
	// inverses of VenuePub and AuthorPub (semantic types differ by name).
	for _, c := range d.DBLP.VenuePub.Correspondences() {
		if !d.DBLP.PubVenue.Has(c.Range, c.Domain) {
			t.Fatalf("PubVenue missing inverse of %v", c)
		}
	}
	for _, c := range d.DBLP.AuthorPub.Correspondences() {
		if !d.DBLP.PubAuthor.Has(c.Range, c.Domain) {
			t.Fatalf("PubAuthor missing inverse of %v", c)
		}
	}
	// Every pub has exactly one venue and at least one author.
	d.DBLP.Pubs.Each(func(in *model.Instance) bool {
		if n := len(d.DBLP.PubVenue.ForDomain(in.ID)); n != 1 {
			t.Errorf("pub %s has %d venues", in.ID, n)
		}
		if len(d.DBLP.PubAuthor.ForDomain(in.ID)) < 1 {
			t.Errorf("pub %s has no authors", in.ID)
		}
		for _, attr := range []string{"title", "year", "pages", "authors", "venue", "kind"} {
			if !in.HasAttr(attr) {
				t.Errorf("pub %s missing attr %s", in.ID, attr)
			}
		}
		return false // checking attrs for the first pub is enough
	})
}

func TestCoAuthorSymmetric(t *testing.T) {
	co := smallDataset().DBLP.CoAuthor
	for _, c := range co.Correspondences() {
		if !co.Has(c.Range, c.Domain) {
			t.Fatalf("co-author mapping not symmetric for %v", c)
		}
		if c.Domain == c.Range {
			t.Fatalf("co-author mapping must not contain the diagonal: %v", c)
		}
	}
}

func TestACMDropsVLDBYears(t *testing.T) {
	cfg := SmallConfig()
	cfg.ACMDropVLDBYears = []int{2001}
	d := Generate(cfg)
	d.ACM.Venues.Each(func(in *model.Instance) bool {
		if in.Attr("series") == "VLDB" && in.Attr("year") == "2001" && in.Attr("kind") == "conference" {
			t.Errorf("VLDB 2001 should be missing from ACM, found %s", in.ID)
		}
		return true
	})
	if d.ACM.Venues.Len() != d.DBLP.Venues.Len()-1 {
		t.Errorf("ACM venues = %d, want DBLP-1 = %d", d.ACM.Venues.Len(), d.DBLP.Venues.Len()-1)
	}
	if d.ACM.Pubs.Len() >= d.DBLP.Pubs.Len() {
		t.Error("ACM must have fewer publications than DBLP")
	}
}

func TestACMAttributesUseNameNotTitle(t *testing.T) {
	d := smallDataset()
	d.ACM.Pubs.Each(func(in *model.Instance) bool {
		if !in.HasAttr("name") || in.HasAttr("title") {
			t.Errorf("ACM pub %s should use 'name' (Figure 1), got %v", in.ID, in)
		}
		if !in.HasAttr("citations") {
			t.Errorf("ACM pub %s missing citations", in.ID)
		}
		return false
	})
}

func TestPerfectMappingsConsistent(t *testing.T) {
	d := smallDataset()
	p := d.Perfect
	if p.PubDBLPACM.Len() != d.ACM.Pubs.Len() {
		t.Errorf("perfect DBLP-ACM size %d != ACM pubs %d", p.PubDBLPACM.Len(), d.ACM.Pubs.Len())
	}
	// Every perfect pair references existing instances.
	for _, c := range p.PubDBLPACM.Correspondences() {
		if !d.DBLP.Pubs.Has(c.Domain) || !d.ACM.Pubs.Has(c.Range) {
			t.Fatalf("perfect pair references missing instances: %v", c)
		}
	}
	for _, c := range p.PubDBLPGS.Correspondences() {
		if !d.DBLP.Pubs.Has(c.Domain) || !d.GS.Pubs.Has(c.Range) {
			t.Fatalf("perfect DBLP-GS pair references missing instances: %v", c)
		}
	}
	// Every DBLP pub has at least one GS entry.
	if len(p.PubDBLPGS.DomainIDs()) != d.DBLP.Pubs.Len() {
		t.Errorf("DBLP pubs with GS entries = %d, want %d",
			len(p.PubDBLPGS.DomainIDs()), d.DBLP.Pubs.Len())
	}
	// Venue perfect mapping is 1:1: every row has its own domain and range.
	if n := p.VenueDBLPACM.Len(); n == 0 || len(p.VenueDBLPACM.DomainIDs()) != n || len(p.VenueDBLPACM.Inverse().DomainIDs()) != n {
		t.Errorf("venue perfect mapping is not 1:1: %d rows", n)
	}
	// Author duplicates ground truth matches config.
	if p.AuthorDupsDBLP.Len() != 2*d.Cfg.DupAuthorPairs {
		t.Errorf("author dups = %d, want %d", p.AuthorDupsDBLP.Len(), 2*d.Cfg.DupAuthorPairs)
	}
}

func TestGSDirtiness(t *testing.T) {
	d := smallDataset()
	// GS has more entries than DBLP (duplicates + noise).
	if d.GS.Pubs.Len() <= d.DBLP.Pubs.Len() {
		t.Error("GS should be larger than DBLP")
	}
	missingYear, initialAuthors := 0, 0
	relevant := 0
	d.GS.Pubs.Each(func(in *model.Instance) bool {
		if strings.HasPrefix(string(in.ID), "gs:n") {
			return true // noise
		}
		relevant++
		if !in.HasAttr("year") {
			missingYear++
		}
		authors := in.Attr("authors")
		if len(authors) > 1 && authors[1] == ' ' {
			initialAuthors++
		}
		return true
	})
	if missingYear == 0 {
		t.Error("some GS entries should miss the year")
	}
	if initialAuthors == 0 {
		t.Error("GS author names should be initial-only")
	}
	// Duplicates: perfect DBLP-GS has more correspondences than DBLP pubs.
	if d.Perfect.PubDBLPGS.Len() <= d.DBLP.Pubs.Len() {
		t.Error("expected duplicate GS entries")
	}
}

func TestGSLinksLowRecall(t *testing.T) {
	d := smallDataset()
	recall := float64(d.GSLinksACM.Len()) / float64(d.Perfect.PubGSACM.Len())
	if recall < 0.1 || recall > 0.35 {
		t.Errorf("GS link recall = %v, want ~%v", recall, d.Cfg.GSLinkRecall)
	}
	// All links are correct (precision 1): they come from the generator.
	for _, c := range d.GSLinksACM.Correspondences() {
		if !d.Perfect.PubGSACM.Has(c.Domain, c.Range) {
			t.Fatalf("existing link %v is wrong", c)
		}
	}
}

func TestMergedTwinsInGS(t *testing.T) {
	// Some GS entries must correspond to two DBLP publications (the merged
	// conference+journal versions of Figure 7).
	d := smallDataset()
	found := false
	perGS := make(map[uint32]int)
	d.Perfect.PubDBLPGS.EachOrd(func(_, gs uint32, _ float64) bool {
		perGS[gs]++
		found = perGS[gs] >= 2
		return !found
	})
	if !found {
		t.Error("expected at least one merged twin entry in GS")
	}
}

func TestVenueNamingDivergence(t *testing.T) {
	d := smallDataset()
	// DBLP and ACM venue names for the same venue must differ wildly.
	var c struct{ dblp, acm string }
	for _, corr := range d.Perfect.VenueDBLPACM.Correspondences() {
		dv := d.DBLP.Venues.Get(corr.Domain)
		av := d.ACM.Venues.Get(corr.Range)
		if dv.Attr("kind") == "conference" {
			c.dblp, c.acm = dv.Attr("name"), av.Attr("name")
			break
		}
	}
	if c.dblp == "" || c.acm == "" {
		t.Fatal("no conference venue pair found")
	}
	if strings.Contains(c.acm, c.dblp) {
		t.Errorf("venue names should diverge: %q vs %q", c.dblp, c.acm)
	}
}

func TestGSQuerySearch(t *testing.T) {
	d := smallDataset()
	q := NewGSQuery(d.GS)
	if q.Docs() != d.GS.Pubs.Len() {
		t.Errorf("Docs = %d, want %d", q.Docs(), d.GS.Pubs.Len())
	}
	// Query by a DBLP title: its GS entries should rank among the hits.
	dblpID := d.Perfect.PubDBLPGS.DomainIDs()[0]
	title := d.DBLP.Pubs.Get(dblpID).Attr("title")
	hits := q.Search(title, 10)
	if hits.Len() == 0 {
		t.Fatal("no hits for a known title")
	}
	foundTrue := false
	for _, c := range d.Perfect.PubDBLPGS.ForDomain(dblpID) {
		if hits.Has(c.Range) {
			foundTrue = true
		}
	}
	if !foundTrue {
		t.Error("true GS entry not in the top hits")
	}
}

func TestGSQueryCollectFor(t *testing.T) {
	d := smallDataset()
	q := NewGSQuery(d.GS)
	sub := d.DBLP.Pubs.Subset(d.DBLP.Pubs.IDs()[:20])
	got := q.CollectFor(sub, "title", 5)
	if got.Len() == 0 {
		t.Fatal("CollectFor returned nothing")
	}
	if got.Len() > 20*5 {
		t.Errorf("CollectFor exceeded k bound: %d", got.Len())
	}
	// Recall of the collection step: most true entries of the driving pubs
	// must be present.
	var total, found int
	sub.Each(func(in *model.Instance) bool {
		for _, c := range d.Perfect.PubDBLPGS.ForDomain(in.ID) {
			total++
			if got.Has(c.Range) {
				found++
			}
		}
		return true
	})
	if total == 0 || float64(found)/float64(total) < 0.7 {
		t.Errorf("collection recall = %d/%d, want >= 0.7", found, total)
	}
}

func TestOrdinal(t *testing.T) {
	cases := map[int]string{1: "1st", 2: "2nd", 3: "3rd", 4: "4th", 11: "11th", 12: "12th", 13: "13th", 21: "21st", 22: "22nd", 23: "23rd", 111: "111th"}
	for n, want := range cases {
		if got := ordinal(n); got != want {
			t.Errorf("ordinal(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestShortenGiven(t *testing.T) {
	if got := shortenGiven("Agathoniki"); got != "Niki" {
		t.Errorf("shortenGiven(Agathoniki) = %q, want Niki", got)
	}
	if got := shortenGiven("Hans"); got != "H." {
		t.Errorf("shortenGiven(Hans) = %q, want H.", got)
	}
}

func TestGSAuthorName(t *testing.T) {
	if got := gsAuthorName("Andreas Thor"); got != "A Thor" {
		t.Errorf("gsAuthorName = %q", got)
	}
	if got := gsAuthorName("Mononym"); got != "Mononym" {
		t.Errorf("single token = %q", got)
	}
}
