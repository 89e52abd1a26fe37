package moma_test

import (
	"fmt"

	moma "repro"
)

// Quickstart: match two small publication sources with attribute matchers,
// combine the evidence with the merge operator, and read off the resolved
// same-mapping — the smallest end-to-end MOMA workflow.
func Example_quickstart() {
	// Two logical data sources holding publications. The instances carry
	// plain attribute values; DBLP-style keys on the left, ACM-style keys
	// on the right.
	dblp := moma.NewObjectSet(moma.LDS{Source: "DBLP", Type: moma.Publication})
	dblp.AddNew("conf/VLDB/MadhavanBR01", map[string]string{
		"title": "Generic Schema Matching with Cupid", "year": "2001"})
	dblp.AddNew("conf/VLDB/ChirkovaHS01", map[string]string{
		"title": "A formal perspective on the view selection problem", "year": "2001"})
	dblp.AddNew("journals/VLDB/ChirkovaHS02", map[string]string{
		"title": "A formal perspective on the view selection problem", "year": "2002"})

	acm := moma.NewObjectSet(moma.LDS{Source: "ACM", Type: moma.Publication})
	acm.AddNew("P-672191", map[string]string{
		"name": "Generic Schema Matching with Cupid", "year": "2001"})
	acm.AddNew("P-672216", map[string]string{
		"name": "A formal perspective on the view selection problem", "year": "2001"})
	acm.AddNew("P-641272", map[string]string{
		"name": "A formal perspective on the view selection problem", "year": "2002"})

	// Matcher 1: trigram similarity on titles. Alone it cannot tell the
	// conference paper from its identically-titled journal version.
	titles := &moma.AttributeMatcher{
		AttrA: "title", AttrB: "name",
		Sim:       moma.Trigram,
		Threshold: 0.8,
	}
	titleMap, err := titles.Match(dblp, acm)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("title matcher alone: %d correspondences (note the twin confusion)\n%s\n",
		titleMap.Len(), titleMap)

	// Matcher 2: exact publication year.
	years := &moma.AttributeMatcher{
		AttrA: "year", AttrB: "year",
		Sim:       moma.YearExact,
		Threshold: 1,
	}
	yearMap, err := years.Match(dblp, acm)
	if err != nil {
		fmt.Println(err)
		return
	}

	// Merge both mappings: Avg-0 treats a correspondence missing from one
	// input as similarity 0, so pairs supported by only one matcher drop
	// below the threshold selection.
	merged, err := moma.Merge(moma.Avg0Combiner, titleMap, yearMap)
	if err != nil {
		fmt.Println(err)
		return
	}
	result := moma.Threshold{T: 0.8}.Apply(merged)

	fmt.Printf("after merging with year evidence: %d correspondences\n%s\n", result.Len(), result)
	for _, c := range result.Sorted() {
		fmt.Printf("  %-30s == %-10s (sim %.2f)\n", c.Domain, c.Range, c.Sim)
	}

	// Output:
	// title matcher alone: 5 correspondences (note the twin confusion)
	// Publication@DBLP -> Publication@ACM (same), 5 correspondences
	//   conf/VLDB/ChirkovaHS01       P-641272                     1.000
	//   conf/VLDB/ChirkovaHS01       P-672216                     1.000
	//   conf/VLDB/MadhavanBR01       P-672191                     1.000
	//   journals/VLDB/ChirkovaHS02   P-641272                     1.000
	//   journals/VLDB/ChirkovaHS02   P-672216                     1.000
	//
	// after merging with year evidence: 3 correspondences
	// Publication@DBLP -> Publication@ACM (same), 3 correspondences
	//   conf/VLDB/ChirkovaHS01       P-672216                     1.000
	//   conf/VLDB/MadhavanBR01       P-672191                     1.000
	//   journals/VLDB/ChirkovaHS02   P-641272                     1.000
	//
	//   conf/VLDB/ChirkovaHS01         == P-672216   (sim 1.00)
	//   conf/VLDB/MadhavanBR01         == P-672191   (sim 1.00)
	//   journals/VLDB/ChirkovaHS02     == P-641272   (sim 1.00)
}
