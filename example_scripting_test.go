package moma_test

import (
	"fmt"

	moma "repro"
)

// The full workflow as a script: define nhMatch exactly as printed in the
// paper, derive a venue same-mapping from the publication same-mapping,
// then select with a threshold.
const venueScript = `
// PROCEDURE from the paper, section 4.2
PROCEDURE nhMatch ( $Asso1, $Same, $Asso2)
   $Temp = compose ( $Asso1 , $Same , Min, Average )
   $Result = compose ( $Temp , $Asso2 , Min, Relative )
   RETURN $Result
END

# Titles give a publication same-mapping; venues follow from it.
$PubSame = attrMatch (DBLP.Publication, ACM.Publication, Trigram, 0.82, "[title]", "[name]")
$VenueNh = nhMatch (DBLP.VenuePub, $PubSame, ACM.PubVenue)
$VenueSame = select ($VenueNh, Threshold, 0.5)
RETURN $VenueSame
`

// A constraint-based refinement: matching publications must not differ by
// more than one year (§2.2 / §3.3).
const constraintScript = `
$PubSame = attrMatch (DBLP.Publication, ACM.Publication, Trigram, 0.82, "[title]", "[name]")
$Clean = select ($PubSame, "abs([domain.year]-[range.year])<=1")
RETURN $Clean
`

// Scripting: the iFuice-style script language driving a complete match
// workflow, including a user-defined procedure (the paper's §4.2 nhMatch
// listing), threshold selections and an object-value constraint.
func Example_scripting() {
	d := moma.GenerateDataset(moma.SmallConfig())
	sys := moma.NewSystem()
	for _, src := range []*moma.DataSource{d.DBLP, d.ACM} {
		if err := sys.LoadSource(src); err != nil {
			fmt.Println(err)
			return
		}
	}

	fmt.Println("running the venue-matching script (paper §4.2)...")
	v, err := sys.RunScript(venueScript)
	if err != nil {
		fmt.Println(err)
		return
	}
	venues := v.Mapping
	fmt.Printf("venue same-mapping: %d correspondences, %s\n",
		venues.Len(), moma.Compare(venues, d.Perfect.VenueDBLPACM))
	for i, c := range venues.Sorted() {
		if i == 5 {
			fmt.Printf("  ... %d more\n", venues.Len()-5)
			break
		}
		fmt.Printf("  %-28s == %-10s (%s -> %s, sim %.2f)\n",
			c.Domain, c.Range,
			d.DBLP.Venues.Get(c.Domain).Attr("name"),
			d.ACM.Venues.Get(c.Range).Attr("name"),
			c.Sim)
	}

	fmt.Println("\nrunning the year-constraint script (paper §3.3)...")
	v2, err := sys.RunScript(constraintScript)
	if err != nil {
		fmt.Println(err)
		return
	}
	// The constraint removes exactly the conference/journal twin
	// confusions whose years differ by more than one.
	raw, _ := sys.MappingByName("Cache.PubSame")
	fmt.Printf("publication mapping: %d pairs before the constraint, %d after\n",
		raw.Len(), v2.Mapping.Len())
	fmt.Printf("quality after constraint: %s\n", moma.Compare(v2.Mapping, d.Perfect.PubDBLPACM))

	// Output:
	// running the venue-matching script (paper §4.2)...
	// venue same-mapping: 39 correspondences, P= 97.4% R=100.0% F= 98.7%
	//   conf/sigmod/2000             == V-600001   (SIGMOD 2000 -> Proceedings of the ACM International Conference on Management of Data, 2000, sim 0.95)
	//   conf/sigmod/2001             == V-600003   (SIGMOD 2001 -> Proceedings of the ACM International Conference on Management of Data, 2001, sim 1.00)
	//   conf/sigmod/2002             == V-600005   (SIGMOD 2002 -> Proceedings of the ACM International Conference on Management of Data, 2002, sim 0.97)
	//   conf/vldb/2000               == V-600000   (VLDB 2000 -> 26th International Conference on Very Large Data Bases, sim 0.93)
	//   conf/vldb/2001               == V-600002   (VLDB 2001 -> 27th International Conference on Very Large Data Bases, sim 0.94)
	//   ... 34 more
	//
	// running the year-constraint script (paper §3.3)...
	// publication mapping: 244 pairs before the constraint, 241 after
	// quality after constraint: P= 91.7% R= 98.2% F= 94.8%
}
