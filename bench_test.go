package moma

// The benchmarks CI compares against the base commit: compose, merge and
// selection at 100k-1M rows, with controlled fan-out so the work stays
// linear in n, and the store's write path and cold start. The large ones are
// skipped in -short runs. The repository's benchmark proper is the bench/
// module.

import (
	"fmt"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/store"
)

// benchChainMappings builds m1: a_{i/2} -> c_i and m2: c_i -> b_{i/2}, each
// with n correspondences: every output pair of their composition is reached
// via exactly two compose paths, so the join produces n paths and n/2 output
// rows — linear work at any n.
func benchChainMappings(n int) (*mapping.Mapping, *mapping.Mapping) {
	a := model.LDS{Source: "A", Type: model.Publication}
	c := model.LDS{Source: "C", Type: model.Publication}
	bb := model.LDS{Source: "B", Type: model.Publication}
	m1 := mapping.NewSame(a, c)
	m2 := mapping.NewSame(c, bb)
	for i := 0; i < n; i++ {
		s := 0.5 + float64(i%50)/100
		m1.Add(model.ID(fmt.Sprintf("a%d", i/2)), model.ID(fmt.Sprintf("c%d", i)), s)
		m2.Add(model.ID(fmt.Sprintf("c%d", i)), model.ID(fmt.Sprintf("b%d", i/2)), s)
	}
	return m1, m2
}

// benchOverlapMappings builds two mappings over the same sources whose
// correspondence sets overlap by half — the merge shape of combining two
// matcher results.
func benchOverlapMappings(n int) (*mapping.Mapping, *mapping.Mapping) {
	a := model.LDS{Source: "A", Type: model.Publication}
	bb := model.LDS{Source: "B", Type: model.Publication}
	m1 := mapping.NewSame(a, bb)
	m2 := mapping.NewSame(a, bb)
	for i := 0; i < n; i++ {
		s := 0.5 + float64(i%50)/100
		m1.Add(model.ID(fmt.Sprintf("a%d", i)), model.ID(fmt.Sprintf("b%d", i)), s)
		j := i + n/2
		m2.Add(model.ID(fmt.Sprintf("a%d", j)), model.ID(fmt.Sprintf("b%d", j)), s)
	}
	return m1, m2
}

// benchFanoutMapping builds a mapping with fan-out 4 per domain object —
// the shape Best-n selection grouping works over.
func benchFanoutMapping(n int) *mapping.Mapping {
	a := model.LDS{Source: "A", Type: model.Publication}
	bb := model.LDS{Source: "B", Type: model.Publication}
	m := mapping.NewSame(a, bb)
	for i := 0; i < n; i++ {
		m.Add(model.ID(fmt.Sprintf("a%d", i/4)), model.ID(fmt.Sprintf("b%d", i)), 0.5+float64(i%50)/100)
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
				out, err := mapping.Compose(m1, m2, mapping.MinCombiner, mapping.AggRelative)
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
				out, err := mapping.Merge(mapping.AvgCombiner, m1, m2)
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
	sel := mapping.BestN{N: 1, Side: mapping.DomainSide}
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

// BenchmarkWALReplay measures a cold start: opening a repository whose log
// holds one Best-1-shaped put — 250 k rows over 250 k distinct domain and
// 250 k distinct range ids, operators_1m's persisted output — and replaying
// it into the store's fresh dictionary.
func BenchmarkWALReplay(b *testing.B) {
	if testing.Short() {
		b.Skip("large-scale benchmark; run without -short")
	}
	const n = 250_000
	m := mapping.NewSame(model.LDS{Source: "A", Type: model.Publication}, model.LDS{Source: "B", Type: model.Publication})
	for i := 0; i < n; i++ {
		m.Add(model.ID(fmt.Sprintf("a%d", 4*i+17)), model.ID(fmt.Sprintf("b%d", 4*i+17)), 0.5+float64(i%50)/100)
	}
	dir := b.TempDir()
	repo, err := store.OpenRepository(dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := repo.Put("ops.bestn", m); err != nil {
		b.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		b.Fatal(err)
	}
	b.Run("rows=250k", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			repo, err := store.OpenRepository(dir)
			if err != nil {
				b.Fatal(err)
			}
			if got, _ := repo.Get("ops.bestn"); got.Len() != n {
				b.Fatalf("replayed %d rows, want %d", got.Len(), n)
			}
			if err := repo.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALPutDelta pins the cost of the faultfs seam on the warm write
// path: the direct OS passthrough and a disarmed injector must track each
// other, and neither may allocate beyond the append itself (CI compares
// both ns/op and allocs/op across commits).
func BenchmarkWALPutDelta(b *testing.B) {
	b.Run("fs=os", func(b *testing.B) { benchWALPutDelta(b, faultfs.OS{}) })
	b.Run("fs=injector-idle", func(b *testing.B) { benchWALPutDelta(b, faultfs.NewInjector(nil)) })
}
