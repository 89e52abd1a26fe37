package moma_test

import (
	"fmt"

	moma "repro"
)

// Ecommerce: MOMA is a domain-independent framework — the paper's outlook
// (§7) names e-commerce as the next target domain. This example matches
// product catalogs of two web shops using multi-attribute matching
// (title + brand + price proximity), a merge with a brand-as-context
// neighborhood matcher, and a year-constraint-style selection — no
// bibliographic code involved.
func Example_ecommerce() {
	// Two shops listing overlapping product catalogs with different
	// naming conventions, like DBLP vs ACM for publications.
	shopA := moma.NewObjectSet(moma.LDS{Source: "ShopA", Type: "Product"})
	shopB := moma.NewObjectSet(moma.LDS{Source: "ShopB", Type: "Product"})

	type product struct {
		idA, idB     string
		nameA, nameB string
		brand        string
		priceA       string
		priceB       string
	}
	catalog := []product{
		{"a1", "b1", "UltraBook Pro 14 Laptop", "Ultra-Book Pro 14in Notebook", "Lenura", "1299", "1289"},
		{"a2", "b2", "UltraBook Pro 16 Laptop", "UltraBook Pro 16 inch", "Lenura", "1599", "1610"},
		{"a3", "b3", "Noise Cancelling Headphones X200", "X200 Noise-Cancelling Headphones", "Sonique", "249", "244"},
		{"a4", "b4", "Wireless Mouse M310", "M310 Wireless Mouse", "Clickon", "29", "31"},
		{"a5", "b5", "Mechanical Keyboard K87 RGB", "K87 RGB Mechanical Keyboard", "Clickon", "119", "115"},
		{"a6", "b6", "4K Action Camera Dive Kit", "Action Camera 4K with Dive Kit", "Optika", "199", "205"},
	}
	for _, p := range catalog {
		shopA.AddNew(moma.ID(p.idA), map[string]string{"name": p.nameA, "brand": p.brand, "price": p.priceA})
		shopB.AddNew(moma.ID(p.idB), map[string]string{"name": p.nameB, "brand": p.brand, "price": p.priceB})
	}
	// Hazard: two variants of the same product line at different prices —
	// name matching alone confuses them (the e-commerce twin problem).
	shopA.AddNew("a7", map[string]string{"name": "USB-C Hub 7 Ports", "brand": "Portly", "price": "49"})
	shopB.AddNew("b7", map[string]string{"name": "USB-C Hub 7 Ports", "brand": "Portly", "price": "47"})
	shopA.AddNew("a8", map[string]string{"name": "USB-C Hub 7 Ports Pro", "brand": "Portly", "price": "89"})
	shopB.AddNew("b8", map[string]string{"name": "USB-C Hub 7 Ports Pro", "brand": "Portly", "price": "92"})
	perfect := moma.NewSameMapping(shopA.LDS(), shopB.LDS())
	for _, pair := range [][2]moma.ID{{"a1", "b1"}, {"a2", "b2"}, {"a3", "b3"}, {"a4", "b4"},
		{"a5", "b5"}, {"a6", "b6"}, {"a7", "b7"}, {"a8", "b8"}} {
		perfect.Add(pair[0], pair[1], 1)
	}

	// Name-only matching: token reordering handled by Monge-Elkan, but the
	// hub variants collide.
	names := &moma.AttributeMatcher{
		AttrA: "name", AttrB: "name",
		Sim:       moma.MongeElkan,
		Threshold: 0.8,
	}
	byName, err := names.Match(shopA, shopB)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("name matcher alone:        %s (%d pairs)\n", moma.Compare(byName, perfect), byName.Len())

	// Multi-attribute: name + brand + price proximity (scale $30).
	multi := &moma.MultiAttributeMatcher{
		Pairs: []moma.AttrPair{
			{AttrA: "name", AttrB: "name", Sim: moma.MongeElkan, Weight: 3},
			{AttrA: "brand", AttrB: "brand", Sim: moma.Trigram, Weight: 1},
			{AttrA: "price", AttrB: "price", Sim: moma.NumericProximity(30), Weight: 2},
		},
		Threshold: 0.78,
	}
	combined, err := multi.Match(shopA, shopB)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Best-1 per product on both sides resolves the remaining variant ties.
	resolved := moma.BestN{N: 1, Side: moma.BothSides}.Apply(combined)
	fmt.Printf("multi-attribute + Best-1:  %s (%d pairs)\n", moma.Compare(resolved, perfect), resolved.Len())

	fmt.Println("\nresolved product pairs:")
	for _, c := range resolved.Sorted() {
		fmt.Printf("  %-34s == %-34s (sim %.2f)\n",
			shopA.Get(c.Domain).Attr("name"), shopB.Get(c.Range).Attr("name"), c.Sim)
	}
	fmt.Println("\nthe same operators that matched publications match products: the framework is domain independent.")

	// Output:
	// name matcher alone:        P= 80.0% R=100.0% F= 88.9% (10 pairs)
	// multi-attribute + Best-1:  P=100.0% R=100.0% F=100.0% (8 pairs)
	//
	// resolved product pairs:
	//   UltraBook Pro 14 Laptop            == Ultra-Book Pro 14in Notebook       (sim 0.81)
	//   UltraBook Pro 16 Laptop            == UltraBook Pro 16 inch              (sim 0.79)
	//   Noise Cancelling Headphones X200   == X200 Noise-Cancelling Headphones   (sim 0.94)
	//   Wireless Mouse M310                == M310 Wireless Mouse                (sim 0.98)
	//   Mechanical Keyboard K87 RGB        == K87 RGB Mechanical Keyboard        (sim 0.96)
	//   4K Action Camera Dive Kit          == Action Camera 4K with Dive Kit     (sim 0.92)
	//   USB-C Hub 7 Ports                  == USB-C Hub 7 Ports                  (sim 0.98)
	//   USB-C Hub 7 Ports Pro              == USB-C Hub 7 Ports Pro              (sim 0.97)
	//
	// the same operators that matched publications match products: the framework is domain independent.
}
