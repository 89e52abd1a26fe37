package mapping

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/race"
)

// TestReadProbesZeroAllocs pins the point reads consumers run per pair or
// per id: once the lazy pair index is built, a probe allocates nothing, hit
// or miss, and neither does a Touches scan of the columns.
func TestReadProbesZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	dict := model.NewIDDict()
	var dom, rng []uint32
	var sims []float64
	for i := range 64 {
		for j := range 3 {
			dom = append(dom, dict.Ord(model.ID(fmt.Sprintf("a%d", i))))
			rng = append(rng, dict.Ord(model.ID(fmt.Sprintf("b%d", i+j))))
			sims = append(sims, float64(j+1)/4)
		}
	}
	m := newFromColumns(dblpPub, acmPub, model.SameMappingType, dict, dom, rng, sims)
	a, b, absent := model.ID("a7"), model.ID("b8"), model.ID("a7-absent")
	d, r := dict.Ord(a), dict.Ord(b)
	m.Has(a, b) // builds the pair index

	var sinkF float64
	var sinkB bool
	var sinkC Correspondence
	cases := []struct {
		name string
		fn   func()
	}{
		{"Sim", func() { sinkF, sinkB = m.Sim(a, b) }},
		{"Sim/absent", func() { sinkF, sinkB = m.Sim(absent, b) }},
		{"SimOrd", func() { sinkF, sinkB = m.SimOrd(d, r) }},
		{"Has", func() { sinkB = m.Has(a, b) }},
		{"HasOrd", func() { sinkB = m.HasOrd(r, d) }},
		{"At", func() { sinkC = m.At(5) }},
		{"EachOrd", func() {
			m.EachOrd(func(_, _ uint32, s float64) bool { sinkF += s; return true })
		}},
		{"Touches", func() { sinkB = m.Touches(b) }},
		{"Touches/absent", func() { sinkB = m.Touches(absent) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.0f times per run, want 0", tc.name, allocs)
		}
	}
	if s, ok := m.Sim(a, b); !ok || s != 0.5 || len(m.ForDomain(a)) != 3 || !m.Touches(b) || m.Touches(absent) {
		t.Fatalf("fixture broken: Sim = %v %v, %d rows for %s", s, ok, len(m.ForDomain(a)), a)
	}
	_, _, _ = sinkF, sinkB, sinkC
}
