// Package match implements MOMA's extensible matcher library (§2.2):
// generic attribute matchers parameterized by attribute pair, similarity
// function and threshold; a multi-attribute matcher; a TF-IDF matcher that
// builds its corpus from the match inputs; and the neighborhood matcher of
// §4.2 that derives same-mappings from association mappings plus an
// existing same-mapping.
//
// Matchers conform to a single interface — they produce a same-mapping —
// so that workflows can combine any of them uniformly.
package match

import (
	"fmt"
	"sort"

	"repro/internal/mapping"
	"repro/internal/model"
)

// Matcher computes a same-mapping between two object sets of the same
// object type. Implementations must be safe for reuse across calls.
//
// String renders the matcher's exact configuration: attributes, measure
// (sim.Name), thresholds and weights (%v), blocker and SkipMissing; data it
// holds (an ExistingMapping's M, a block.Within's Pairs, a learned tree, a
// non-built-in Func) by identity. A workflow step's definition holds it, so
// two matchers that render alike must compute alike. It cannot see the
// values a custom Func captures: Forget a step to run it under new ones.
type Matcher interface {
	// Match returns a same-mapping between a and b.
	Match(a, b *model.ObjectSet) (*mapping.Mapping, error)
	// String renders the matcher's configuration.
	String() string
}

// requireSameType validates that both inputs hold the same object type.
func requireSameType(a, b *model.ObjectSet) error {
	if !a.LDS().SameType(b.LDS()) {
		return fmt.Errorf("match: inputs must share an object type, got %s and %s", a.LDS(), b.LDS())
	}
	return nil
}

// sortedAttrValues collects the non-empty values of attr across a set,
// sorted, for corpus construction.
func sortedAttrValues(set *model.ObjectSet, attr string) []string {
	var vals []string
	for i := range set.Len() {
		if v := set.Attr(i, attr); v != "" {
			vals = append(vals, v)
		}
	}
	sort.Strings(vals)
	return vals
}
