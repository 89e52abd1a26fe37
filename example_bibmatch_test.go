package moma_test

import (
	"fmt"

	moma "repro"
)

// Bibmatch: the paper's flagship scenario end to end on the synthetic
// bibliographic world — match publications between DBLP and ACM with
// attribute matchers, derive a venue same-mapping with the neighborhood
// matcher (§4.2 / Figure 9), use it to repair the publication mapping, and
// evaluate every step against the generator's perfect mappings.
func Example_bibmatch() {
	fmt.Println("generating the synthetic DBLP / ACM / Google Scholar world...")
	d := moma.GenerateDataset(moma.SmallConfig())
	fmt.Printf("DBLP: %d pubs, %d venues; ACM: %d pubs, %d venues\n\n",
		d.DBLP.Pubs.Len(), d.DBLP.Venues.Len(), d.ACM.Pubs.Len(), d.ACM.Venues.Len())

	// Step 1 — attribute matching on titles (DBLP "title" vs ACM "name").
	titles := &moma.AttributeMatcher{
		AttrA: "title", AttrB: "name",
		Sim:       moma.Trigram,
		Threshold: 0.82,
		Blocker:   moma.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
	}
	pubSame, err := titles.Match(d.DBLP.Pubs, d.ACM.Pubs)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("step 1  title matcher:        %s\n", moma.Compare(pubSame, d.Perfect.PubDBLPACM))

	// Step 2 — venue matching via the neighborhood matcher. General string
	// matching is hopeless here ("VLDB 2001" vs "27th International
	// Conference on Very Large Data Bases"); two venues match when their
	// publications match.
	venueNh, err := moma.NhMatch(d.DBLP.VenuePub, pubSame, d.ACM.PubVenue)
	if err != nil {
		fmt.Println(err)
		return
	}
	venueSame := moma.BestN{N: 1, Side: moma.DomainSide}.Apply(venueNh)
	fmt.Printf("step 2  venue neighborhood:   %s\n", moma.Compare(venueSame, d.Perfect.VenueDBLPACM))

	// Step 3 — repair the publication mapping with the venue evidence
	// (§5.4.2): publications of corresponding venues, merged with the
	// title mapping under missing-as-zero.
	pubNh, err := moma.NhMatch(d.DBLP.PubVenue, venueSame, d.ACM.VenuePub)
	if err != nil {
		fmt.Println(err)
		return
	}
	merged, err := moma.Merge(moma.Avg0Combiner, pubSame, pubNh)
	if err != nil {
		fmt.Println(err)
		return
	}
	repaired := moma.Threshold{T: 0.75}.Apply(merged)
	fmt.Printf("step 3  merged with venues:   %s\n", moma.Compare(repaired, d.Perfect.PubDBLPACM))

	// Step 4 — author matching (n:m case, Figure 11): a permissive name
	// matcher intersected with shared-publication evidence, unioned with
	// the strict name matcher.
	strict := &moma.AttributeMatcher{
		AttrA: "name", AttrB: "name", Sim: moma.Trigram, Threshold: 0.8,
		Blocker: moma.TokenBlocking{AttrA: "name", AttrB: "name", MinShared: 1},
	}
	strictNames, err := strict.Match(d.DBLP.Authors, d.ACM.Authors)
	if err != nil {
		fmt.Println(err)
		return
	}
	permissive := &moma.AttributeMatcher{
		AttrA: "name", AttrB: "name", Sim: moma.PersonName, Threshold: 0.5,
		Blocker: moma.TokenBlocking{AttrA: "name", AttrB: "name", MinShared: 1},
	}
	looseNames, err := permissive.Match(d.DBLP.Authors, d.ACM.Authors)
	if err != nil {
		fmt.Println(err)
		return
	}
	authorNh, err := moma.NhMatch(d.DBLP.AuthorPub, repaired, d.ACM.PubAuthor)
	if err != nil {
		fmt.Println(err)
		return
	}
	inner, err := moma.Merge(moma.Min0Combiner, looseNames, authorNh)
	if err != nil {
		fmt.Println(err)
		return
	}
	inner = moma.Threshold{T: 0.45}.Apply(inner)
	authors, err := moma.Merge(moma.MaxCombiner, strictNames, inner)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("step 4  authors (n:m merge):  %s\n", moma.Compare(authors, d.Perfect.AuthorDBLPACM))

	fmt.Println("\nthe neighborhood matcher turned an unusable venue problem into a near-perfect mapping,")
	fmt.Println("and its evidence repaired both the publication and the author mappings — the paper's core claim.")

	// Output:
	// generating the synthetic DBLP / ACM / Google Scholar world...
	// DBLP: 250 pubs, 39 venues; ACM: 225 pubs, 38 venues
	//
	// step 1  title matcher:        P= 90.6% R= 98.2% F= 94.2%
	// step 2  venue neighborhood:   P= 97.4% R=100.0% F= 98.7%
	// step 3  merged with venues:   P= 99.1% R= 98.2% F= 98.7%
	// step 4  authors (n:m merge):  P= 98.6% R= 98.6% F= 98.6%
	//
	// the neighborhood matcher turned an unusable venue problem into a near-perfect mapping,
	// and its evidence repaired both the publication and the author mappings — the paper's core claim.
}
