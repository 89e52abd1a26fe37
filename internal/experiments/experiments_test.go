package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/sources"
)

// The experiment tests run at small scale and assert the qualitative
// shapes the paper reports: which matcher wins, where merge helps, where
// compose paths fail. Absolute values are asserted only loosely; the full
// paper-vs-measured comparison lives in EXPERIMENTS.md at paper scale.

var (
	settingOnce sync.Once
	shared      *Setting
)

func testSetting(t *testing.T) *Setting {
	t.Helper()
	settingOnce.Do(func() { shared = NewSetting(sources.SmallConfig()) })
	return shared
}

func TestTable1Counts(t *testing.T) {
	s := testSetting(t)
	r, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][0] != "DBLP" || r.Rows[2][0] != "Google Scholar" {
		t.Errorf("row labels = %v", r.Rows)
	}
	// DBLP is complete; ACM misses publications; GS is the largest.
	if !(s.D.ACM.Pubs.Len() < s.D.DBLP.Pubs.Len() && s.D.DBLP.Pubs.Len() < s.D.GS.Pubs.Len()) {
		t.Error("source size ordering wrong")
	}
	if !strings.Contains(r.Render(), "Table 1") {
		t.Error("render missing title")
	}
}

func TestTable2Shape(t *testing.T) {
	s := testSetting(t)
	r, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	title := r.Metrics["Title"]
	author := r.Metrics["Author"]
	year := r.Metrics["Year"]
	merge := r.Metrics["Merge"]

	// The paper's ordering: title is the best individual matcher, year is
	// useless on precision but perfect on recall, merge beats title.
	if !(title.F1 > author.F1 && author.F1 > year.F1) {
		t.Errorf("matcher ordering wrong: title=%v author=%v year=%v", title.F1, author.F1, year.F1)
	}
	if year.Recall != 1 {
		t.Errorf("year recall = %v, want 1 (all true pairs share the year)", year.Recall)
	}
	if year.Precision > 0.1 {
		t.Errorf("year precision = %v, should be near zero", year.Precision)
	}
	if merge.F1 <= title.F1 {
		t.Errorf("merge (%v) must beat title (%v)", merge.F1, title.F1)
	}
	if merge.Precision <= title.Precision {
		t.Errorf("merge precision (%v) must beat title precision (%v)", merge.Precision, title.Precision)
	}
	if title.F1 < 0.85 {
		t.Errorf("title F = %v, want a strong baseline like the paper's 91.9%%", title.F1)
	}
}

func TestTable3Shape(t *testing.T) {
	s := testSetting(t)
	r, err := Table3(s)
	if err != nil {
		t.Fatal(err)
	}
	// The existing GS-ACM links have high precision but very poor recall.
	direct := r.Metrics["GS-ACM direct"]
	if direct.Precision < 0.95 {
		t.Errorf("existing links precision = %v, want ~1", direct.Precision)
	}
	if direct.Recall > 0.35 {
		t.Errorf("existing links recall = %v, want ~0.22", direct.Recall)
	}
	// Composing via the clean DBLP hub beats the poor direct links.
	if r.Metrics["GS-ACM compose"].F1 <= direct.F1 {
		t.Error("compose via DBLP hub must beat the existing links")
	}
	// Composing via the dirty GS hub is much worse than direct matching.
	if r.Metrics["DBLP-ACM compose"].F1 >= r.Metrics["DBLP-ACM direct"].F1 {
		t.Error("compose via GS must be worse than direct DBLP-ACM matching")
	}
	// Merging retains (approximately) the best alternative for each pair.
	for _, pair := range []string{"DBLP-GS", "DBLP-ACM", "GS-ACM"} {
		best := r.Metrics[pair+" direct"].F1
		if c := r.Metrics[pair+" compose"].F1; c > best {
			best = c
		}
		if m := r.Metrics[pair+" merge"].F1; m < best-0.03 {
			t.Errorf("%s merge F=%v should retain the best alternative %v", pair, m, best)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	s := testSetting(t)
	r, err := Table4(s)
	if err != nil {
		t.Fatal(err)
	}
	// Neighborhood matching solves the venue problem that attribute
	// matching cannot touch: overall F must be very high.
	if f := r.Metrics["overall/50%"].F1; f < 0.9 {
		t.Errorf("overall F at 50%% = %v, want >= 0.9 (paper: 99.1%%)", f)
	}
	// Conferences match perfectly under the strict threshold (large,
	// well-matched neighborhoods).
	if f := r.Metrics["conference/80%"].F1; f != 1 {
		t.Errorf("conference F at 80%% = %v, want 1", f)
	}
	// Best-1 hurts conference precision: the ACM-missing VLDB years force
	// a wrong best match (the paper's VLDB 2002/2003 effect).
	if r.Metrics["conference/Best-1"].Precision >= 1 {
		t.Error("Best-1 should cost conference precision due to missing ACM years")
	}
	// Journals never beat conferences under the strict threshold (smaller
	// neighborhoods), and a stricter threshold cannot raise journal recall.
	if r.Metrics["journal/80%"].Recall > r.Metrics["journal/50%"].Recall {
		t.Error("stricter threshold cannot raise journal recall")
	}
}

func TestTable5Shape(t *testing.T) {
	s := testSetting(t)
	r, err := Table5(s)
	if err != nil {
		t.Fatal(err)
	}
	attr := r.Metrics["overall/Attribute (Title)"]
	nh := r.Metrics["overall/Neighborhood (Venue)"]
	merge := r.Metrics["overall/Merge"]
	// The venue neighborhood alone confines candidates: perfect recall,
	// terrible precision (paper: R 100%, P 2%).
	if nh.Recall < 0.99 {
		t.Errorf("venue-neighborhood recall = %v, want ~1", nh.Recall)
	}
	if nh.Precision > 0.5 {
		t.Errorf("venue-neighborhood precision = %v, should be low", nh.Precision)
	}
	// Combination beats the attribute matcher decisively (paper: 91.9 ->
	// 98.6).
	if merge.F1 <= attr.F1 {
		t.Errorf("merge (%v) must beat title (%v)", merge.F1, attr.F1)
	}
	if merge.Precision < 0.97 {
		t.Errorf("merge precision = %v, want near-perfect", merge.Precision)
	}
	// The journal improvement is the paper's headline: recurring newsletter
	// titles are disambiguated by the venue evidence.
	if r.Metrics["journal/Merge"].Precision <= r.Metrics["journal/Attribute (Title)"].Precision {
		t.Error("venue evidence should fix journal title collisions")
	}
}

func TestTable6Shape(t *testing.T) {
	s := testSetting(t)
	r, err := Table6(s)
	if err != nil {
		t.Fatal(err)
	}
	attr := r.Metrics["Attribute (Name)"]
	nh := r.Metrics["Neighborhood (Publication)"]
	merge := r.Metrics["Merge"]
	// Neighborhood alone: poor precision, good recall (paper: P 24.8 / R
	// 99.3).
	if nh.Precision > 0.5 || nh.Recall < 0.8 {
		t.Errorf("nh alone = %+v, want low precision / high recall", nh)
	}
	// Attribute matching is already reasonable (paper: F 89.4).
	if attr.F1 < 0.85 {
		t.Errorf("attr F = %v", attr.F1)
	}
	// Combination improves overall quality and recall (name variants
	// recovered via shared publications).
	if merge.F1 <= attr.F1 {
		t.Errorf("merge (%v) must beat attribute (%v)", merge.F1, attr.F1)
	}
	if merge.Recall <= attr.Recall {
		t.Errorf("merge recall (%v) must beat attribute recall (%v)", merge.Recall, attr.Recall)
	}
}

func TestTable7Shape(t *testing.T) {
	s := testSetting(t)
	r, err := Table7(s)
	if err != nil {
		t.Fatal(err)
	}
	title := r.Metrics["Attribute (Title)"]
	nh := r.Metrics["Neighborhood (Author)"]
	merge := r.Metrics["Merge"]
	if nh.F1 >= title.F1 {
		t.Errorf("nh alone (%v) should be below title (%v)", nh.F1, title.F1)
	}
	if merge.F1 <= title.F1 {
		t.Errorf("merge (%v) must beat title (%v) — the paper's 81->89 lift", merge.F1, title.F1)
	}
	// GS matching stays clearly below the clean DBLP-ACM task.
	if merge.F1 > 0.95 {
		t.Errorf("DBLP-GS merge F = %v suspiciously high for dirty GS", merge.F1)
	}
}

func TestTable8Shape(t *testing.T) {
	s := testSetting(t)
	r, err := Table8(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["Merge"].F1 <= r.Metrics["Attribute (Title)"].F1 {
		t.Error("merge must beat title for GS-ACM too")
	}
}

func TestTable9Dedup(t *testing.T) {
	s := testSetting(t)
	r, err := Table9(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no duplicate candidates")
	}
	// The top candidates must be true duplicates; further down the list,
	// hard cases like the paper's "Catalina Fan / Catalina Wei" pair —
	// same co-authors, similar names, genuinely undecidable — may appear.
	for i := 0; i < 2 && i < len(r.Rows); i++ {
		if r.Rows[i][len(r.Rows[i])-1] != "true" {
			t.Errorf("top candidate %d is not a true duplicate: %v", i+1, r.Rows[i])
		}
	}
	trueCount := 0
	for _, row := range r.Rows {
		if row[len(row)-1] == "true" {
			trueCount++
		}
	}
	if trueCount < 2 {
		t.Errorf("only %d/%d top candidates are true duplicates", trueCount, len(r.Rows))
	}
}

func TestTable10Summary(t *testing.T) {
	s := testSetting(t)
	r, err := Table10(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// DBLP-ACM tasks all end up strong; GS tasks stay visibly lower — the
	// paper's closing observation.
	if r.Metrics["venues"].F1 < 0.9 || r.Metrics["pubs DBLP-ACM"].F1 < 0.9 || r.Metrics["authors DBLP-ACM"].F1 < 0.9 {
		t.Errorf("DBLP-ACM results should all exceed 0.9: %+v", r.Metrics)
	}
	if r.Metrics["pubs DBLP-GS"].F1 >= r.Metrics["pubs DBLP-ACM"].F1 {
		t.Error("GS matching must stay below DBLP-ACM matching")
	}
}

func TestAblationMergeMissingShape(t *testing.T) {
	s := testSetting(t)
	r, err := AblationMergeMissing(s)
	if err != nil {
		t.Fatal(err)
	}
	// Ignoring missing values floods the merge with year-only pairs.
	if r.Metrics["Avg (ignore missing)"].Precision > 0.1 {
		t.Error("Avg-ignore should have terrible precision here")
	}
	// Intersection has the highest precision of the variants.
	minP := r.Metrics["Min-0 (intersection)"].Precision
	for k, m := range r.Metrics {
		if k != "Min-0 (intersection)" && m.Precision > minP+1e-9 {
			t.Errorf("%s precision %v exceeds intersection %v", k, m.Precision, minP)
		}
	}
}

func TestAblationComposeAggShape(t *testing.T) {
	s := testSetting(t)
	r, err := AblationComposeAgg(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Max over paths is the most permissive: highest recall, worst
	// precision.
	maxRes := r.Metrics["Max"]
	for k, m := range r.Metrics {
		if k == "Max" {
			continue
		}
		if m.Recall > maxRes.Recall+1e-9 {
			t.Errorf("%s recall %v exceeds Max %v", k, m.Recall, maxRes.Recall)
		}
	}
}

func TestAblationBlockingShape(t *testing.T) {
	s := testSetting(t)
	r, err := AblationBlocking(s)
	if err != nil {
		t.Fatal(err)
	}
	// Token blocking with two shared tokens keeps full completeness at a
	// large reduction, matching the cross product's quality.
	var crossF, tokenF string
	for _, row := range r.Rows {
		if strings.HasPrefix(row[0], "cross-product") {
			crossF = row[4]
		}
		if strings.HasPrefix(row[0], "token-blocking") && strings.Contains(row[0], ">=2") {
			tokenF = row[4]
			if row[3] != "1.000" {
				t.Errorf("token blocking completeness = %s, want 1.000", row[3])
			}
		}
	}
	if crossF != "" && crossF != tokenF {
		t.Errorf("token blocking F %s differs from cross product %s", tokenF, crossF)
	}
}

func TestAblationHubChoiceShape(t *testing.T) {
	s := testSetting(t)
	r, err := AblationHubChoice(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["via clean hub (DBLP)"].F1 <= r.Metrics["via dirty hub (GS)"].F1 {
		t.Error("the clean hub must beat the dirty hub")
	}
}

func TestFigureRenderings(t *testing.T) {
	f4, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Rows) != 4 {
		t.Errorf("Figure 4 rows = %d", len(f4.Rows))
	}
	if !strings.Contains(f4.Render(), "(a1,b1,0.60)") {
		t.Errorf("Figure 4 Min-0 row wrong:\n%s", f4.Render())
	}
	f6, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != 4 {
		t.Errorf("Figure 6 rows = %d", len(f6.Rows))
	}
	if !strings.Contains(f6.Render(), "0.800") {
		t.Errorf("Figure 6 missing the 0.8 correspondence:\n%s", f6.Render())
	}
	f9, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	out := f9.Render()
	for _, frag := range []string{"conf/VLDB/2001", "V-645927", "0.800", "0.667"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Figure 9 missing %q:\n%s", frag, out)
		}
	}
}

func TestFigure8HubShape(t *testing.T) {
	s := testSetting(t)
	r, err := Figure8Hub(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["via hub DBLP"].F1 <= r.Metrics["direct links"].F1 {
		t.Error("hub composition must beat the direct links")
	}
	if r.Metrics["direct links"].Precision < 0.95 {
		t.Error("direct links should be precise")
	}
}

func TestExtensionGSSelfMapping(t *testing.T) {
	s := testSetting(t)
	r, err := ExtensionGSSelfMapping(s)
	if err != nil {
		t.Fatal(err)
	}
	base := r.Metrics["Title only"]
	ext := r.Metrics["With self-mapping"]
	// Composing the GS self-mapping must raise recall (more duplicate
	// entries reached) without destroying precision.
	if ext.Recall < base.Recall {
		t.Errorf("self-mapping composition lowered recall: %v -> %v", base.Recall, ext.Recall)
	}
	if ext.Recall == base.Recall {
		t.Log("no recall gain at this scale (acceptable, checked at paper scale)")
	}
	if ext.Precision < base.Precision-0.1 {
		t.Errorf("self-mapping composition cost too much precision: %v -> %v", base.Precision, ext.Precision)
	}
}

func TestExtensionSelfTuning(t *testing.T) {
	s := testSetting(t)
	r, err := ExtensionSelfTuning(s)
	if err != nil {
		t.Fatal(err)
	}
	best := r.Metrics["Grid best"]
	// The grid must discover a sensible configuration: title trigram at a
	// reasonable threshold, with a strong F on the training data.
	if best.F1 < 0.8 {
		t.Errorf("grid best F = %v, want >= 0.8", best.F1)
	}
	if !strings.Contains(r.Rows[0][1], "title") {
		t.Errorf("grid should select a title configuration, got %q", r.Rows[0][1])
	}
	tree := r.Metrics["Decision tree"]
	if tree.F1 < 0.8 {
		t.Errorf("decision tree F = %v, want >= 0.8", tree.F1)
	}
}

// TestSharedStepsRunOnce: a Setting runs each workflow step once, however
// many experiments list it. Every experiment that runs through the engine
// runs twice; the second pass leaves every step result in place, and the
// shared steps are held under their names.
func TestSharedStepsRunOnce(t *testing.T) {
	s := NewSetting(sources.SmallConfig())
	runAll := func() {
		for _, ex := range []func(*Setting) (*TableResult, error){
			Table2, Table3, Table4, Table5, Table6, Table7, Table8, Table9, Table10,
			Figure8Hub, AblationMergeMissing, AblationComposeAgg, AblationHubChoice, ExtensionGSSelfMapping,
		} {
			if _, err := ex(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	runAll()
	first := make(map[string]*mapping.Mapping)
	for _, name := range s.engine.Steps() {
		first[name], _ = s.engine.Mapping(name)
	}
	for _, name := range append(goldenSteps, "Cache.CoAuthSim", "Cache.NameSim", "Cache.Result") {
		if first[name] == nil {
			t.Errorf("%s: not held by the engine", name)
		}
	}
	runAll()
	if n := len(s.engine.Steps()); n != len(first) {
		t.Errorf("second pass left %d step results, want %d", n, len(first))
	}
	for name, m := range first {
		if again, _ := s.engine.Mapping(name); again != m {
			t.Errorf("%s: the second pass ran the step again", name)
		}
	}
}
