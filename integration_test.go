package moma

// End-to-end integration tests across all subsystems: generate the
// synthetic world, load it into a persistent System, run script and
// workflow strategies, fuse the results, and restart the system to verify
// everything survives the write-ahead log.

import (
	"math"
	"strings"
	"testing"

	"repro/internal/model"
)

func TestIntegrationFullPipeline(t *testing.T) {
	dir := t.TempDir()
	d := GenerateDataset(SmallConfig())

	sys, err := OpenSystem(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*DataSource{d.DBLP, d.ACM} {
		if err := sys.LoadSource(src); err != nil {
			t.Fatal(err)
		}
	}

	// Stage 1: publication matching via a workflow (title + year merged).
	wf := NewWorkflow("pub-match").AddStep(Step{Name: "combine",
		Matchers: []Matcher{
			&AttributeMatcher{AttrA: "title", AttrB: "name", Sim: Trigram, Threshold: 0.82,
				Blocker: TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2}},
			&AttributeMatcher{AttrA: "year", AttrB: "year", Sim: YearExact, Threshold: 1,
				Blocker: TokenBlocking{AttrA: "year", AttrB: "year", MinShared: 1}},
		},
		F:      Combiner{Kind: KindWeighted, Weights: []float64{3, 2}, MissingAsZero: true},
		Select: []Selection{Threshold{T: 0.75}},
	}).Store("DBLP-ACM.PubSame")
	pubSame, err := sys.RunWorkflow(wf, "DBLP.Publication", "ACM.Publication")
	if err != nil {
		t.Fatal(err)
	}
	if r := Compare(pubSame, d.Perfect.PubDBLPACM); r.F1 < 0.9 {
		t.Errorf("pipeline stage 1 F = %v, want >= 0.9", r.F1)
	}

	// Stage 2: venue matching via a script using the stored mapping.
	v, err := sys.RunScript(`
$VenueNh = nhMatch (DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue)
$VenueSame = select ($VenueNh, Best, 1)
RETURN $VenueSame
`)
	if err != nil {
		t.Fatal(err)
	}
	if r := Compare(v.Mapping, d.Perfect.VenueDBLPACM); r.F1 < 0.85 {
		t.Errorf("pipeline stage 2 F = %v, want >= 0.85", r.F1)
	}
	if err := sys.AddMapping("DBLP-ACM.VenueSame", v.Mapping); err != nil {
		t.Fatal(err)
	}

	// Stage 3: fuse ACM citations onto DBLP publications over the stored
	// publication mapping.
	fuser := NewFuser(d.DBLP.Pubs)
	stored, _ := sys.MappingByName("DBLP-ACM.PubSame")
	if err := fuser.Add(stored, d.ACM.Pubs,
		FuseRule{FromAttr: "citations", ToAttr: "citations", Agg: FirstValue, MinSim: 0.75}); err != nil {
		t.Fatal(err)
	}
	fused := fuser.Run()
	withCitations := 0
	fused.Each(func(in *Instance) bool {
		if in.HasAttr("citations") {
			withCitations++
		}
		return true
	})
	if float64(withCitations) < 0.8*float64(d.ACM.Pubs.Len()) {
		t.Errorf("only %d/%d publications gained citations", withCitations, d.ACM.Pubs.Len())
	}

	// Stage 4: restart and verify both stored mappings survive the WAL.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSystem(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, name := range []string{"DBLP-ACM.PubSame", "DBLP-ACM.VenueSame"} {
		m, ok := re.MappingByName(name)
		if !ok || m.Len() == 0 {
			t.Errorf("mapping %s lost across restart", name)
		}
	}
	recovered, _ := re.MappingByName("DBLP-ACM.PubSame")
	if !recovered.Equal(pubSame, 1e-12) {
		t.Error("recovered mapping differs from the stored one")
	}
	if recovered.Dict() != model.IDs {
		t.Error("a replayed mapping must intern through model.IDs")
	}

	// Stage 5: stage 2's script over the replayed publication mapping gives
	// the venue mapping row for row, in insertion order and to the bit.
	for _, src := range []*DataSource{d.DBLP, d.ACM} {
		if err := re.LoadSource(src); err != nil {
			t.Fatal(err)
		}
	}
	again, err := re.RunScript(`
$VenueNh = nhMatch (DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue)
$VenueSame = select ($VenueNh, Best, 1)
RETURN $VenueSame
`)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := again.Mapping.Len(), v.Mapping.Len(); g != w {
		t.Fatalf("venue mapping over the replayed mapping has %d rows, want %d", g, w)
	}
	for i := range v.Mapping.Len() {
		g, w := again.Mapping.At(i), v.Mapping.At(i)
		if g.Domain != w.Domain || g.Range != w.Range || math.Float64bits(g.Sim) != math.Float64bits(w.Sim) {
			t.Fatalf("venue row %d over the replayed mapping = %+v, want %+v", i, g, w)
		}
	}
}

func TestIntegrationCSVInterchange(t *testing.T) {
	// moma-gen's CSV format feeds cmd/moma; verify the same round trip in
	// process: export a mapping and a set, re-import, and re-evaluate.
	d := GenerateDataset(SmallConfig())
	m := &AttributeMatcher{AttrA: "title", AttrB: "name", Sim: Trigram, Threshold: 0.82,
		Blocker: TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2}}
	same, err := m.Match(d.DBLP.Pubs, d.ACM.Pubs)
	if err != nil {
		t.Fatal(err)
	}
	var mapBuf, setBuf strings.Builder
	if err := WriteMappingCSV(&mapBuf, same); err != nil {
		t.Fatal(err)
	}
	if err := WriteObjectSetCSV(&setBuf, d.DBLP.Pubs); err != nil {
		t.Fatal(err)
	}
	reMap, err := ReadMappingCSV(strings.NewReader(mapBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	reSet, err := ReadObjectSetCSV(strings.NewReader(setBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reMap.Equal(same, 1e-12) {
		t.Error("mapping CSV round trip changed the mapping")
	}
	if reSet.Len() != d.DBLP.Pubs.Len() {
		t.Error("object set CSV round trip changed the set")
	}
	before := Compare(same, d.Perfect.PubDBLPACM)
	after := Compare(reMap, d.Perfect.PubDBLPACM)
	if before != after {
		t.Errorf("evaluation changed across CSV round trip: %v vs %v", before, after)
	}
}
