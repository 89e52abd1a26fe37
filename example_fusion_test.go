package moma_test

import (
	"fmt"

	moma "repro"
)

// Fusion: what the same-mappings are for (§1, §4.1.2). The example matches
// the synthetic DBLP source against ACM and Google Scholar, then uses the
// resulting same-mappings to fuse information: ACM citation counts and GS
// citation totals are attached to DBLP publications, and the GS-ACM
// mapping is derived for free by composing via the DBLP hub (Figure 8).
func Example_fusion() {
	d := moma.GenerateDataset(moma.SmallConfig())

	// Google Scholar is query-only: collect a working set by sending one
	// title query per DBLP publication (§5.1).
	gsQuery := moma.NewGSQuery(d.GS)
	gsWork := gsQuery.CollectFor(d.DBLP.Pubs, "title", 10)
	fmt.Printf("collected %d GS entries via %d title queries (GS holds %d documents)\n\n",
		gsWork.Len(), d.DBLP.Pubs.Len(), d.GS.Pubs.Len())

	// Same-mappings: DBLP-ACM and DBLP-GS via title matching.
	toACM, err := (&moma.AttributeMatcher{
		AttrA: "title", AttrB: "name", Sim: moma.Trigram, Threshold: 0.82,
		Blocker: moma.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
	}).Match(d.DBLP.Pubs, d.ACM.Pubs)
	if err != nil {
		fmt.Println(err)
		return
	}
	toGS, err := (&moma.AttributeMatcher{
		AttrA: "title", AttrB: "title", Sim: moma.Trigram, Threshold: 0.75,
		Blocker: moma.TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 2},
	}).Match(d.DBLP.Pubs, gsWork)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("DBLP-ACM: %s\nDBLP-GS:  %s\n\n",
		moma.Compare(toACM, d.Perfect.PubDBLPACM),
		moma.Compare(toGS, d.Perfect.PubDBLPGS.Filter(func(c moma.Correspondence) bool {
			return gsWork.Has(c.Range)
		})))

	// Fuse: attach ACM citations (first value) and the SUM of the GS
	// duplicate entries' citations to each DBLP publication.
	fuser := moma.NewFuser(d.DBLP.Pubs)
	if err := fuser.Add(toACM, d.ACM.Pubs,
		moma.FuseRule{FromAttr: "citations", ToAttr: "acm_citations", Agg: moma.FirstValue, MinSim: 0.8}); err != nil {
		fmt.Println(err)
		return
	}
	if err := fuser.Add(toGS, gsWork,
		moma.FuseRule{FromAttr: "citations", ToAttr: "gs_citations", Agg: moma.SumNumeric, MinSim: 0.75}); err != nil {
		fmt.Println(err)
		return
	}
	fused := fuser.Run()

	shown := 0
	fused.Each(func(in *moma.Instance) bool {
		if in.HasAttr("acm_citations") && in.HasAttr("gs_citations") {
			fmt.Printf("  %-38.38s  ACM: %3s  GS(sum over duplicates): %4s\n",
				in.Attr("title"), in.Attr("acm_citations"), in.Attr("gs_citations"))
			shown++
		}
		return shown < 5
	})

	// Coverage report: how many DBLP publications gained each attribute.
	cov := map[string]int{}
	for _, attr := range []string{"acm_citations", "gs_citations"} {
		fused.Each(func(in *moma.Instance) bool {
			if in.HasAttr(attr) {
				cov[attr]++
			}
			return true
		})
	}
	fmt.Printf("\ncoverage: %d/%d pubs gained ACM citations, %d/%d gained GS citations\n",
		cov["acm_citations"], fused.Len(), cov["gs_citations"], fused.Len())

	// The hub payoff (Figure 8): GS-ACM emerges by composing via DBLP —
	// no direct GS-ACM matching needed.
	gsACM, err := moma.Compose(toGS.Inverse(), toACM, moma.MinCombiner, moma.AggMax)
	if err != nil {
		fmt.Println(err)
		return
	}
	perfect := d.Perfect.PubGSACM.Filter(func(c moma.Correspondence) bool { return gsWork.Has(c.Domain) })
	fmt.Printf("GS-ACM composed via the DBLP hub: %s\n", moma.Compare(gsACM, perfect))

	// Output:
	// collected 476 GS entries via 250 title queries (GS holds 816 documents)
	//
	// DBLP-ACM: P= 90.6% R= 98.2% F= 94.2%
	// DBLP-GS:  P= 94.5% R= 87.7% F= 90.9%
	//
	//   Buffer Allocation Parallel Clusters Re  ACM:   3  GS(sum over duplicates):    3
	//   Probabilistic Load Shedding for Semist  ACM:  49  GS(sum over duplicates):   56
	//   Towards Parallel Data Integration in W  ACM:  25  GS(sum over duplicates):   27
	//   Towards Secure Transaction Scheduling   ACM:   8  GS(sum over duplicates):   47
	//   On the Complexity of Provenance Tracki  ACM:  27  GS(sum over duplicates):   57
	//
	// coverage: 224/250 pubs gained ACM citations, 230/250 gained GS citations
	// GS-ACM composed via the DBLP hub: P= 95.2% R= 86.4% F= 90.6%
}
