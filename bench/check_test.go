package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/bench/worldgen"
	"repro/internal/mapping"
	"repro/internal/model"
)

// The correctness checkers must fail on a wrong result, not only pass on a
// right one: each negative case below is one defect the checks exist for.

func loadGoldens(t *testing.T) []batchGolden {
	t.Helper()
	var gs []batchGolden
	if err := json.Unmarshal(batchGoldenJSON, &gs); err != nil {
		t.Fatal(err)
	}
	for _, g := range gs {
		if len(g.F1) != len(experimentKeys) || len(g.Table1) != 3 {
			t.Fatalf("golden of world seed %d has %d experiments and %d Table 1 rows", g.Seed, len(g.F1), len(g.Table1))
		}
	}
	return gs
}

// TestGoldenCoversEveryWorld: whatever --seed the driver passes, the world it
// maps to has a golden, so no run falls back to a weaker check.
func TestGoldenCoversEveryWorld(t *testing.T) {
	have := map[int64]bool{}
	for _, g := range loadGoldens(t) {
		have[g.Seed] = true
	}
	for seed := int64(-40); seed <= 40; seed++ {
		if w := worldgen.PaperWorldSeed(seed); !have[w] {
			t.Errorf("--seed %d draws world %d, which has no golden", seed, w)
		}
	}
}

// outcomeOf returns a deep copy of a golden as a run's outcome.
func outcomeOf(g batchGolden) batchGolden {
	out := batchGolden{Seed: g.Seed, F1: map[string]map[string]float64{}}
	for _, row := range g.Table1 {
		out.Table1 = append(out.Table1, append([]string(nil), row...))
	}
	for id, strategies := range g.F1 {
		out.F1[id] = map[string]float64{}
		for label, f1 := range strategies {
			out.F1[id][label] = f1
		}
	}
	return out
}

func TestCheckBatchAgainstGolden(t *testing.T) {
	gs := loadGoldens(t)
	for _, g := range gs {
		if f := checkBatch(outcomeOf(g), gs, false); len(f) != 0 {
			t.Fatalf("the golden of world seed %d does not pass its own check: %v", g.Seed, f)
		}
	}
	g := gs[len(gs)-1]

	// One wrong F1, in the last digit.
	bad := outcomeOf(g)
	bad.F1["Table 2"]["Title"] += 1e-12
	f := checkBatch(bad, gs, false)
	if len(f) != 1 || !strings.Contains(f[0], "Table 2 / Title") {
		t.Fatalf("one wrong F1 gave %v", f)
	}

	// A missing strategy and a wrong source size.
	bad = outcomeOf(g)
	delete(bad.F1["Table 2"], "Year")
	bad.Table1[1][2] = "2293"
	if f := checkBatch(bad, gs, false); len(f) < 3 {
		t.Fatalf("missing strategy and wrong ACM size gave only %v", f)
	}

	// Another world's values do not pass for this one, and a world without a
	// golden fails rather than passing on the F1 floor alone.
	other := outcomeOf(gs[0])
	other.Seed = g.Seed
	if f := checkBatch(other, gs, false); len(f) == 0 {
		t.Fatal("the values of another world passed")
	}
	other = outcomeOf(g)
	other.Seed = -1
	if f := checkBatch(other, gs, false); len(f) != 1 || !strings.Contains(f[0], "no entry for world seed -1") {
		t.Fatalf("a world without a golden gave %v", f)
	}
	// The Table 2 floor holds on the quick world too.
	other.F1["Table 2"]["Merge"] = 0.94
	if f := checkBatch(other, gs, true); len(f) != 1 || !strings.Contains(f[0], "below 0.95") {
		t.Fatalf("Table 2 F1 0.94 gave %v", f)
	}
}

// tinyOutputs are a round's outputs small enough to write by hand.
func tinyOutputs() opsOutputs {
	lds := model.LDS{Source: "T", Type: model.Publication}
	mk := func(rows ...[3]any) *mapping.Mapping {
		m := mapping.NewSame(lds, lds)
		for _, r := range rows {
			m.Add(model.ID(r[0].(string)), model.ID(r[1].(string)), r[2].(float64))
		}
		return m
	}
	return opsOutputs{
		compose: mk([3]any{"a1", "b1", 0.9}, [3]any{"a2", "b2", 0.7}),
		merge:   mk([3]any{"a1", "b1", 0.9}, [3]any{"a2", "b2", 0.7}, [3]any{"a3", "b3", 0.6}),
		bestn:   mk([3]any{"a1", "b1", 0.9}),
	}
}

func TestCheckIdenticalOutputs(t *testing.T) {
	if f, n := checkIdentical(tinyOutputs(), tinyOutputs()); len(f) != 0 || n != 3 {
		t.Fatalf("equal outputs: %v, %d identical", f, n)
	}
	// Same rows in another order: not bit-identical.
	seq := tinyOutputs()
	lds := seq.compose.Domain()
	seq.compose = mapping.NewSame(lds, lds)
	seq.compose.Add("a2", "b2", 0.7)
	seq.compose.Add("a1", "b1", 0.9)
	if f, n := checkIdentical(tinyOutputs(), seq); len(f) != 1 || n != 2 || !strings.Contains(f[0], "compose") {
		t.Fatalf("reordered compose output: %v, %d identical", f, n)
	}
	// One similarity off by one ulp.
	seq = tinyOutputs()
	seq.merge = mapping.NewSame(lds, lds)
	seq.merge.Add("a1", "b1", 0.9)
	seq.merge.Add("a2", "b2", 0.7000000000000001)
	seq.merge.Add("a3", "b3", 0.6)
	if f, _ := checkIdentical(tinyOutputs(), seq); len(f) != 1 || !strings.Contains(f[0], "merge") {
		t.Fatalf("one-ulp difference in merge: %v", f)
	}
}

func TestCheckReopened(t *testing.T) {
	put := tinyOutputs().merge
	// A replayed mapping lives in another dictionary with other ordinals.
	lds := put.Domain()
	got := mapping.NewWithDict(lds, lds, model.SameMappingType, model.NewIDDict())
	got.Add("zz", "zz", 0.1) // shifts every ordinal
	replay := mapping.NewWithDict(lds, lds, model.SameMappingType, got.Dict())
	replay.Add("a1", "b1", 0.9)
	replay.Add("a2", "b2", 0.7)
	replay.Add("a3", "b3", 0.6)
	if f := checkReopened("m", put, replay); f != "" {
		t.Fatalf("equal content in another dictionary: %s", f)
	}
	if f := checkReopened("m", put, nil); !strings.Contains(f, "missing") {
		t.Fatalf("missing mapping: %q", f)
	}
	if f := checkReopened("m", put, tinyOutputs().compose); !strings.Contains(f, "rows") {
		t.Fatalf("short mapping: %q", f)
	}
	changed := mapping.NewSame(lds, lds)
	changed.Add("a1", "b1", 0.9)
	changed.Add("a2", "b2", 0.7)
	changed.Add("a3", "bX", 0.6)
	if f := checkReopened("m", put, changed); !strings.Contains(f, "content") {
		t.Fatalf("changed id: %q", f)
	}
}

func TestLedgerPredictsDeltaRows(t *testing.T) {
	c0, c1 := newAckLedger(), newAckLedger()
	// Client 0 added x (matching resident r1 and r2) and y (matching r3).
	c0.added["x"] = []wireMatch{{"r1", 0.9}, {"r2", 0.8}}
	c0.added["y"] = []wireMatch{{"r3", 1}}
	// Client 1 added z, which matched resident r1 and client 0's live x,
	// and w; then client 0 removed x and client 1 removed w.
	c1.added["z"] = []wireMatch{{"r1", 0.85}, {"x", 0.95}}
	c1.added["w"] = []wireMatch{{"r9", 0.8}}
	c0.removed["x"] = true
	c1.removed["w"] = true
	// An add that matched nothing leaves no rows.
	c1.added["lonely"] = nil

	want := []deltaRow{{"y", "r3", 1}, {"z", "r1", 0.85}}
	got := predictRows([]*ackLedger{c0, c1})
	if f := checkLedger(want, got); len(f) != 0 {
		t.Fatalf("prediction %v: %v", got, f)
	}

	// The store lost one acknowledged add.
	if f := checkLedger(predictRows([]*ackLedger{c0, c1}), []deltaRow{{"z", "r1", 0.85}}); len(f) == 0 || !strings.Contains(f[0], "y -> r3 is missing") {
		t.Fatalf("a lost acknowledged add gave %v", f)
	}
	// The store kept a row of a removed instance.
	extra := []deltaRow{{"y", "r3", 1}, {"z", "r1", 0.85}, {"z", "x", 0.95}}
	if f := checkLedger(predictRows([]*ackLedger{c0, c1}), extra); len(f) == 0 || !strings.Contains(f[0], "does not predict") {
		t.Fatalf("a surviving row of a removed instance gave %v", f)
	}
	// The store changed a similarity.
	if f := checkLedger(predictRows([]*ackLedger{c0, c1}), []deltaRow{{"y", "r3", 0.99}, {"z", "r1", 0.85}}); len(f) != 1 || !strings.Contains(f[0], "sim") {
		t.Fatalf("a changed similarity gave %v", f)
	}
}

func TestTracerSelfTimeAndCoverage(t *testing.T) {
	tr := &Tracer{}
	// probes [0,100) holds a [10,40) and b [50,90); a holds c [20,30).
	tr.spans = []Span{
		{ID: 1, Parent: 0, Name: probeRoot, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "x.a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 2, Name: "y.c", StartNS: 20, EndNS: 30},
		{ID: 4, Parent: 1, Name: "x.b", StartNS: 50, EndNS: 90},
	}
	rows := map[string]LayerRow{}
	for _, r := range tr.Layers() {
		rows[r.Name] = r
	}
	ns := func(s float64) float64 { return math.Round(s * 1e9) }
	if r := rows["x.a"]; r.Layer != "x" || ns(r.TotalS) != 30 || ns(r.SelfS) != 20 {
		t.Errorf("x.a = %+v, want total 30 self 20", r)
	}
	if r := rows["y.c"]; r.Layer != "y" || ns(r.SelfS) != 10 {
		t.Errorf("y.c = %+v, want self 10", r)
	}
	if r := rows[probeRoot]; ns(r.SelfS) != 30 {
		t.Errorf("probes self = %v ns, want 30", ns(r.SelfS))
	}
	if c := tr.Coverage(); c < 0.6999 || c > 0.7001 {
		t.Errorf("coverage = %v, want 0.7", c)
	}

	// Live recording nests by call order, and a nil tracer is inert.
	live := newTracer()
	outer := live.Start("outer")
	live.Time("inner", func() {})
	outer.Count("n", 3)
	outer.End()
	if len(live.spans) != 2 || live.spans[1].Parent != live.spans[0].ID || live.spans[0].Counts["n"] != 3 {
		t.Errorf("recorded spans %+v", live.spans)
	}
	var none *Tracer
	none.Start("x").End()
	if none.Time("x", func() {}) < 0 || none.Layers() != nil {
		t.Error("nil tracer must only time")
	}
}

func TestParsePromAndTook(t *testing.T) {
	text := `# HELP moma_x_total Things.
# TYPE moma_x_total counter
moma_x_total{kind="a b"} 3
moma_x_total{kind="c"} 4
moma_y_seconds_sum{stage="score"} 0.25
moma_z 7
`
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.family("moma_x_total"); got != 7 {
		t.Errorf("family sum = %v, want 7", got)
	}
	if got := s[`moma_y_seconds_sum{stage="score"}`]; got != 0.25 {
		t.Errorf("labelled series = %v", got)
	}
	if got := delta(promSample{"moma_z": 2}, s, "moma_z"); got != 5 {
		t.Errorf("delta = %v, want 5", got)
	}
	if v, ok := tookUS([]byte(`{"set":"s","matches":[],"took_us":417}`)); !ok || v != 417 {
		t.Errorf("tookUS = %v %v", v, ok)
	}
	if _, ok := tookUS([]byte(`{"error":"x"}`)); ok {
		t.Error("tookUS found a value in an error reply")
	}
}

// TestHostRefHelper drives the helper's loop the way a hostProbe does: one
// answer of two positive times per request byte, and a clean end on end of
// input.
func TestHostRefHelper(t *testing.T) {
	var out strings.Builder
	if err := serveHostRef(strings.NewReader("ss"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d answers to 2 requests: %q", len(lines), out.String())
	}
	for _, line := range lines {
		var alu, mem float64
		if _, err := fmt.Sscan(line, &alu, &mem); err != nil || alu <= 0 || mem <= 0 {
			t.Errorf("answer %q: %v", line, err)
		}
	}
}

// TestCalmQuartiles: the calm quartile ignores a disturbed majority, and a
// calm round's parts add up to its total.
func TestCalmQuartiles(t *testing.T) {
	// Five of eight repetitions disturbed: the lower quartile stays at the
	// undisturbed level, the median does not.
	xs := []float64{10, 30, 10.2, 25, 40, 10.1, 22, 35}
	if got := calm(xs); got < 10 || got > 10.2 {
		t.Errorf("calm = %v, want the undisturbed level 10-10.2", got)
	}
	if got := brisk([]float64{100, 99, 60, 98, 50, 70, 40, 65}); got < 98 || got > 100 {
		t.Errorf("brisk = %v, want the undisturbed level 98-100", got)
	}
	r := calmRound([]opsTimes{{1, 2, 3, 4}, {2, 3, 4, 5}, {1.1, 2.1, 3.1, 4.1}, {9, 9, 9, 9}})
	if sum := r.compose + r.merge + r.bestn + r.threshold; sum != r.total() {
		t.Errorf("parts sum to %v, total %v", sum, r.total())
	}
	if r.compose < 1 || r.compose > 1.1 {
		t.Errorf("calm compose = %v", r.compose)
	}
}
