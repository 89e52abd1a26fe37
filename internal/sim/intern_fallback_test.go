package sim

import (
	"fmt"
	"testing"
)

// TestProfiledFallbacksDoNotIntern pins the guarantee the dictgrowth
// suppression in QueryInto relies on: every built-in measure that does NOT
// implement QueryProfiler has a ProfileInto that never interns into the
// global Terms dictionary. QueryInto calls ProfileInto on query records for
// exactly these measures, so if one of them started interning, an unbounded
// query stream would grow Terms without bound.
func TestProfiledFallbacksDoNotIntern(t *testing.T) {
	checked := 0
	var p Profile
	var sc Scratch
	for _, b := range builtins {
		ps := b.ps
		if _, ok := ps.(QueryProfiler); ok {
			continue // QueryInto profiles these via ProfileQueryInto; covered by the fuzz test
		}
		checked++
		before := Terms.Len()
		// Values no test or fixture has ever interned: growth is attributable.
		for i := 0; i < 4; i++ {
			QueryInto(ps, fmt.Sprintf("zz-fallback-probe-%T-%d unseen token", ps, i), &p, &sc)
		}
		if after := Terms.Len(); after != before {
			t.Errorf("%T.ProfileInto interned %d term(s); measures without ProfileQueryInto must stay dictionary-free or gain one", ps, after-before)
		}
	}
	if checked == 0 {
		t.Fatal("every registered measure implements QueryProfiler; QueryInto's fallback is dead and its //moma:dictgrowth-ok should be removed")
	}
}
