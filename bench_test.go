package moma

// One benchmark per table and figure of the paper's evaluation, plus
// microbenchmarks for the operators and substrates they exercise. The
// table benchmarks run against the reduced test-scale dataset so that
// `go test -bench=.` finishes quickly; `cmd/moma-bench` runs the same
// experiments at the paper's full Table 1 scale. Set MOMA_BENCH_SCALE=paper
// to run these benchmarks at full scale too.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/faultfs"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/sources"
	"repro/internal/store"
)

var (
	benchOnce    sync.Once
	benchSetting *experiments.Setting
)

// benchSettingFor returns the shared experiment setting (built once).
func benchSettingFor(b *testing.B) *experiments.Setting {
	b.Helper()
	benchOnce.Do(func() {
		cfg := sources.SmallConfig()
		if os.Getenv("MOMA_BENCH_SCALE") == "paper" {
			cfg = sources.PaperConfig()
		}
		benchSetting = experiments.NewSetting(cfg)
	})
	return benchSetting
}

// benchTable runs one table reproduction per iteration and reports a key
// F-measure as a benchmark metric.
func benchTable(b *testing.B, run func(*experiments.Setting) (*experiments.TableResult, error), metric string) {
	s := benchSettingFor(b)
	b.ResetTimer()
	var last *experiments.TableResult
	for i := 0; i < b.N; i++ {
		r, err := run(s)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil && metric != "" {
		if res, ok := last.Metrics[metric]; ok {
			b.ReportMetric(res.F1*100, "F1%")
		}
	}
}

func BenchmarkTable1Counts(b *testing.B) {
	benchTable(b, experiments.Table1, "")
}

func BenchmarkTable2AttributeMatchers(b *testing.B) {
	benchTable(b, experiments.Table2, "Merge")
}

func BenchmarkTable3ComposePaths(b *testing.B) {
	benchTable(b, experiments.Table3, "GS-ACM compose")
}

func BenchmarkTable4VenueNeighborhood(b *testing.B) {
	benchTable(b, experiments.Table4, "overall/Best-1")
}

func BenchmarkTable5PublicationNeighborhood(b *testing.B) {
	benchTable(b, experiments.Table5, "overall/Merge")
}

func BenchmarkTable6AuthorNeighborhood(b *testing.B) {
	benchTable(b, experiments.Table6, "Merge")
}

func BenchmarkTable7DBLPGSNeighborhood(b *testing.B) {
	benchTable(b, experiments.Table7, "Merge")
}

func BenchmarkTable8GSACMNeighborhood(b *testing.B) {
	benchTable(b, experiments.Table8, "Merge")
}

func BenchmarkTable9DuplicateAuthors(b *testing.B) {
	benchTable(b, experiments.Table9, "")
}

func BenchmarkTable10Summary(b *testing.B) {
	benchTable(b, experiments.Table10, "pubs DBLP-ACM")
}

func BenchmarkFigure4Merge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6Compose(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9Neighborhood(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8Hub(b *testing.B) {
	benchTable(b, experiments.Figure8Hub, "via hub DBLP")
}

func BenchmarkAblationMergeMissing(b *testing.B) {
	benchTable(b, experiments.AblationMergeMissing, "Min-0 (intersection)")
}

func BenchmarkAblationComposeAgg(b *testing.B) {
	benchTable(b, experiments.AblationComposeAgg, "Relative")
}

func BenchmarkAblationBlocking(b *testing.B) {
	benchTable(b, experiments.AblationBlocking, "")
}

func BenchmarkAblationHubChoice(b *testing.B) {
	benchTable(b, experiments.AblationHubChoice, "via clean hub (DBLP)")
}

func BenchmarkExtensionGSSelfMapping(b *testing.B) {
	benchTable(b, experiments.ExtensionGSSelfMapping, "With self-mapping")
}

func BenchmarkExtensionSelfTuning(b *testing.B) {
	benchTable(b, experiments.ExtensionSelfTuning, "Grid best")
}

// --- Operator microbenchmarks -------------------------------------------

// syntheticSame builds a same-mapping with n correspondences fanning out
// over sqrt(n) domain objects.
func syntheticSame(n int) *Mapping {
	a := LDS{Source: "A", Type: Publication}
	c := LDS{Source: "C", Type: Publication}
	m := NewSameMapping(a, c)
	side := 1
	for side*side < n {
		side++
	}
	for i := 0; i < n; i++ {
		m.Add(ID(fmt.Sprintf("a%d", i%side)), ID(fmt.Sprintf("c%d", i/side)), 0.5+float64(i%50)/100)
	}
	return m
}

func syntheticSecond(n int) *Mapping {
	c := LDS{Source: "C", Type: Publication}
	b := LDS{Source: "B", Type: Publication}
	m := NewSameMapping(c, b)
	side := 1
	for side*side < n {
		side++
	}
	for i := 0; i < n; i++ {
		m.Add(ID(fmt.Sprintf("c%d", i/side)), ID(fmt.Sprintf("b%d", i%side)), 0.5+float64(i%50)/100)
	}
	return m
}

func BenchmarkMergeOperator(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		m1 := syntheticSame(n)
		m2 := syntheticSame(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Merge(AvgCombiner, m1, m2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkComposeOperator(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		m1 := syntheticSame(n)
		m2 := syntheticSecond(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compose(m1, m2, MinCombiner, AggRelative); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Large-scale mapping-operator benchmarks ----------------------------
//
// The columnar mapping core is sized for correspondence sets far beyond the
// paper's evaluation; these benchmarks exercise compose, merge and selection
// at 100k-1M rows with controlled fan-out so the work stays linear in n.
// Skipped in -short runs (CI runs them once in a dedicated step and the
// mapping-operator compare step watches them for regressions).

// benchChainMappings builds m1: a_{i/2} -> c_i and m2: c_i -> b_{i/2}, each
// with n correspondences: every output pair of their composition is reached
// via exactly two compose paths, so the join produces n paths and n/2 output
// rows — linear work at any n.
func benchChainMappings(n int) (*Mapping, *Mapping) {
	a := LDS{Source: "A", Type: Publication}
	c := LDS{Source: "C", Type: Publication}
	bb := LDS{Source: "B", Type: Publication}
	m1 := NewSameMapping(a, c)
	m2 := NewSameMapping(c, bb)
	for i := 0; i < n; i++ {
		s := 0.5 + float64(i%50)/100
		m1.Add(ID(fmt.Sprintf("a%d", i/2)), ID(fmt.Sprintf("c%d", i)), s)
		m2.Add(ID(fmt.Sprintf("c%d", i)), ID(fmt.Sprintf("b%d", i/2)), s)
	}
	return m1, m2
}

// benchOverlapMappings builds two mappings over the same sources whose
// correspondence sets overlap by half — the merge shape of combining two
// matcher results.
func benchOverlapMappings(n int) (*Mapping, *Mapping) {
	a := LDS{Source: "A", Type: Publication}
	bb := LDS{Source: "B", Type: Publication}
	m1 := NewSameMapping(a, bb)
	m2 := NewSameMapping(a, bb)
	for i := 0; i < n; i++ {
		s := 0.5 + float64(i%50)/100
		m1.Add(ID(fmt.Sprintf("a%d", i)), ID(fmt.Sprintf("b%d", i)), s)
		j := i + n/2
		m2.Add(ID(fmt.Sprintf("a%d", j)), ID(fmt.Sprintf("b%d", j)), s)
	}
	return m1, m2
}

// benchFanoutMapping builds a mapping with fan-out 4 per domain object —
// the shape Best-n selection grouping works over.
func benchFanoutMapping(n int) *Mapping {
	a := LDS{Source: "A", Type: Publication}
	bb := LDS{Source: "B", Type: Publication}
	m := NewSameMapping(a, bb)
	for i := 0; i < n; i++ {
		m.Add(ID(fmt.Sprintf("a%d", i/4)), ID(fmt.Sprintf("b%d", i)), 0.5+float64(i%50)/100)
	}
	return m
}

var mappingBenchSizes = []struct {
	name string
	n    int
}{{"n=100k", 100000}, {"n=1M", 1000000}}

func BenchmarkMappingCompose(b *testing.B) {
	if testing.Short() {
		b.Skip("large-scale benchmark; run without -short")
	}
	for _, sz := range mappingBenchSizes {
		b.Run(sz.name, func(b *testing.B) {
			m1, m2 := benchChainMappings(sz.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := Compose(m1, m2, MinCombiner, AggRelative)
				if err != nil {
					b.Fatal(err)
				}
				if out.Len() != sz.n/2 {
					b.Fatalf("compose produced %d rows, want %d", out.Len(), sz.n/2)
				}
			}
		})
	}
}

func BenchmarkMappingMerge(b *testing.B) {
	if testing.Short() {
		b.Skip("large-scale benchmark; run without -short")
	}
	for _, sz := range mappingBenchSizes {
		b.Run(sz.name, func(b *testing.B) {
			m1, m2 := benchOverlapMappings(sz.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := Merge(AvgCombiner, m1, m2)
				if err != nil {
					b.Fatal(err)
				}
				if out.Len() != sz.n+sz.n/2 {
					b.Fatalf("merge produced %d rows, want %d", out.Len(), sz.n+sz.n/2)
				}
			}
		})
	}
}

func BenchmarkMappingSelect(b *testing.B) {
	if testing.Short() {
		b.Skip("large-scale benchmark; run without -short")
	}
	sel := BestN{N: 1, Side: DomainSide}
	for _, sz := range mappingBenchSizes {
		b.Run(sz.name, func(b *testing.B) {
			m := benchFanoutMapping(sz.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := sel.Apply(m)
				if out.Len() != (sz.n+3)/4 {
					b.Fatalf("select kept %d rows, want %d", out.Len(), (sz.n+3)/4)
				}
			}
		})
	}
}

func BenchmarkSelectionBestN(b *testing.B) {
	m := syntheticSame(10000)
	sel := BestN{N: 1, Side: DomainSide}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Apply(m)
	}
}

func BenchmarkTrigram(b *testing.B) {
	t1 := "A formal perspective on the view selection problem"
	t2 := "A formal perspective on the view selection problem revisited"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Trigram(t1, t2)
	}
}

// BenchmarkTrigramProfiled measures the pair-scoring stage alone: profiles
// are built once (as a matcher does per attribute value) and only Compare
// runs per iteration. This is the per-pair cost inside a match workflow.
func BenchmarkTrigramProfiled(b *testing.B) {
	t1 := "A formal perspective on the view selection problem"
	t2 := "A formal perspective on the view selection problem revisited"
	ps := ProfiledOf(Trigram)
	pa, pb := NewSimProfile(ps, t1), NewSimProfile(ps, t2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.Compare(pa, pb, 0)
	}
}

func BenchmarkPersonName(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PersonName("A. Thor", "Andreas Thor")
	}
}

func BenchmarkAttributeMatcherBlocked(b *testing.B) {
	s := benchSettingFor(b)
	m := &AttributeMatcher{
		AttrA: "title", AttrB: "name", Sim: Trigram, Threshold: 0.82,
		Blocker: TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Match(s.D.DBLP.Pubs, s.D.ACM.Pubs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttributeMatcherKernelWorkers measures the block → score kernel
// at different worker counts: A's ordinals are cut into ranges of equal
// probe cost, each range probes, scores and keeps on one goroutine, and
// only kept correspondences are materialized.
func BenchmarkAttributeMatcherKernelWorkers(b *testing.B) {
	s := benchSettingFor(b)
	for _, workers := range []int{1, 4} {
		m := &AttributeMatcher{
			AttrA: "title", AttrB: "name", Sim: Trigram, Threshold: 0.82,
			Blocker: TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
			Workers: workers,
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Match(s.D.DBLP.Pubs, s.D.ACM.Pubs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var (
	bench100kOnce    sync.Once
	bench100kDataset *sources.Dataset
)

// bench100kDatasetFor builds (once) the large-scale moma-gen world: the
// small-config sources with Google Scholar padded to 100k publications —
// the scale where interned blocking columns and uint32 postings matter.
func bench100kDatasetFor(b *testing.B) *sources.Dataset {
	b.Helper()
	bench100kOnce.Do(func() {
		cfg := sources.SmallConfig()
		cfg.GSTargetPublications = 100000
		cfg.GSNoiseDocs = 20000
		bench100kDataset = sources.Generate(cfg)
	})
	return bench100kDataset
}

// BenchmarkAttributeMatcherBlocked100k is the large-scale blocked match:
// every DBLP publication probes a token index over 100k Google Scholar
// entries, and the 100k-value profile column is rebuilt per match. Skipped
// in -short runs (CI runs it once in a dedicated step).
func BenchmarkAttributeMatcherBlocked100k(b *testing.B) {
	if testing.Short() {
		b.Skip("large-scale benchmark; run without -short")
	}
	d := bench100kDatasetFor(b)
	m := &AttributeMatcher{
		AttrA: "title", AttrB: "title", Sim: Trigram, Threshold: 0.82,
		Blocker: TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 2},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Match(d.DBLP.Pubs, d.GS.Pubs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockerPairsEach100k isolates large-scale candidate generation
// over the 100k-document ordinal index (cached across iterations, as in a
// multi-matcher workflow).
func BenchmarkBlockerPairsEach100k(b *testing.B) {
	if testing.Short() {
		b.Skip("large-scale benchmark; run without -short")
	}
	d := bench100kDatasetFor(b)
	bl := TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		bl.PairsEach(d.DBLP.Pubs, d.GS.Pubs, func(p Pair) bool {
			n++
			return true
		})
		if n == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkBlockerPairsEach isolates candidate generation: the streaming
// entry point visits every candidate without materializing the pair slice
// that Pairs builds.
func BenchmarkBlockerPairsEach(b *testing.B) {
	s := benchSettingFor(b)
	blockers := []Blocker{
		TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
		SortedNeighborhood{AttrA: "title", AttrB: "name", Window: 5},
	}
	for _, bl := range blockers {
		b.Run(bl.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				bl.PairsEach(s.D.DBLP.Pubs, s.D.ACM.Pubs, func(p Pair) bool {
					n++
					return true
				})
				if n == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}

// BenchmarkAttributeMatcherBlockedUnprofiled is the same match with the
// measure hidden behind a closure, forcing the per-pair string path — the
// baseline the similarity-profile layer is measured against.
func BenchmarkAttributeMatcherBlockedUnprofiled(b *testing.B) {
	s := benchSettingFor(b)
	wrapped := func(x, y string) float64 { return Trigram(x, y) }
	m := &AttributeMatcher{
		AttrA: "title", AttrB: "name", Sim: wrapped, Threshold: 0.82,
		Blocker: TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Match(s.D.DBLP.Pubs, s.D.ACM.Pubs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGSQueryCollection(b *testing.B) {
	s := benchSettingFor(b)
	q := NewGSQuery(s.D.GS)
	sub := s.D.DBLP.Pubs.Subset(s.D.DBLP.Pubs.IDs()[:50])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.CollectFor(sub, "title", 10)
	}
}

func BenchmarkScriptNhMatch(b *testing.B) {
	s := benchSettingFor(b)
	sys := NewSystem()
	if err := sys.LoadSource(s.D.DBLP); err != nil {
		b.Fatal(err)
	}
	if err := sys.AddMapping("DBLP.AuthorAuthor", IdentityOf(s.D.DBLP.Authors)); err != nil {
		b.Fatal(err)
	}
	src := "RETURN nhMatch (DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor)\n"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunScript(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatasetGeneration(b *testing.B) {
	cfg := sources.SmallConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sources.Generate(cfg)
	}
}

// benchWALPutDelta measures the warm logged-delta path — lock, JSON append,
// flush, AddMax — against a repository whose filesystem goes through fsys.
func benchWALPutDelta(b *testing.B, fsys faultfs.FS) {
	repo, err := store.OpenRepositoryFS(b.TempDir(), fsys)
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	repo.SetAutoCompact(0, 0) // pure WAL appends; no compaction inside the loop
	dom := model.LDS{Source: "DBLP", Type: model.Publication}
	rng := model.LDS{Source: "ACM", Type: model.Publication}
	// Pre-interned IDs and a reused rows buffer: the measurement is the
	// store's append path, not workload-side allocation.
	ids := make([]model.ID, 256)
	for i := range ids {
		ids[i] = model.ID(fmt.Sprintf("obj-%03d", i))
	}
	rows := make([]mapping.Correspondence, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			k := (i*len(rows) + j) % len(ids)
			rows[j] = mapping.Correspondence{Domain: ids[k], Range: ids[(k+1)%len(ids)], Sim: 0.5}
		}
		if err := repo.PutDelta("live.bench", dom, rng, model.SameMappingType, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALPutDelta pins the cost of the faultfs seam on the warm write
// path: the direct OS passthrough and a disarmed injector must track each
// other, and neither may allocate beyond the append itself (CI compares
// both ns/op and allocs/op across commits).
func BenchmarkWALPutDelta(b *testing.B) {
	b.Run("fs=os", func(b *testing.B) { benchWALPutDelta(b, faultfs.OS{}) })
	b.Run("fs=injector-idle", func(b *testing.B) { benchWALPutDelta(b, faultfs.NewInjector(nil)) })
}
