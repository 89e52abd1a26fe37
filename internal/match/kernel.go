package match

import (
	"repro/internal/block"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/sim"
)

// Scan is the candidate loop of the batch matchers and of the live
// resolver: probe → filter → score → keep. A row — an A ordinal of a batch
// range, a resolve's query — fixes one side's key in the filtered column (a
// set measure at a fixed floor: a single keyed column, or the first of a
// sim.Weighted), so Row sets the key test of the row once. Candidate checks
// a candidate's key against it and hands what passes to Score, what Score
// keeps to Sink. A rejected candidate counts as scored and pruned, as if
// Score had stopped on it. A Scan serves one goroutine.
type Scan struct {
	// Filter is the filtered column's key test, tabulated for the keys it
	// meets (the zero RowFilter rejects nothing); RowKeys and Keys are that
	// column's keys of the rows and of the candidates, by ordinal.
	Filter        sim.RowFilter
	RowKeys, Keys []sim.Key
	// Score scores candidate ordB of row ordA past the filter (negative: a
	// floor ended it); Sink receives what it keeps.
	Score func(ordA, ordB int) (sim float64, keep bool)
	Sink  func(ordA, ordB int, sim float64)
	// Pairs counts the candidates, Kept the sunk, Pruned the rest that the
	// filter rejected or Score stopped.
	Pairs, Kept, Pruned int

	row  int
	keys []sim.Key // Keys unless the row's filter is off
}

// Row starts row ordA. A row without a key (RowKeys is nil for a column
// that keeps none) reads as the empty set, which rejects nothing.
func (s *Scan) Row(ordA int) {
	var a sim.Key
	if uint(ordA) < uint(len(s.RowKeys)) {
		a = s.RowKeys[ordA]
	}
	s.row, s.keys = ordA, s.Keys
	s.Filter.Row(a)
	if s.Filter.Off() {
		s.keys = nil
	}
}

// Candidate runs candidate ordB of the current row through the loop and
// returns true, as a probe's yield. A candidate without a key passes the
// filter.
func (s *Scan) Candidate(ordB int) bool {
	s.Pairs++
	if uint(ordB) < uint(len(s.keys)) && s.Filter.Rejects(&s.keys[ordB]) {
		s.Pruned++
		return true
	}
	v, keep := s.Score(s.row, ordB)
	if keep {
		s.Kept++
		s.Sink(s.row, ordB, v)
	} else if v < 0 {
		s.Pruned++
	}
	return true
}

// flush adds a range's counts to the moma_match_* counters, once per range.
func flush(s *Scan) {
	matchPairsTotal.Add(uint64(s.Pairs))
	matchKeptTotal.Add(uint64(s.Kept))
	matchPrunedTotal.Add(uint64(s.Pruned))
}

// blockScore is the block → score kernel of the batch matchers: it runs the
// blocker's candidates over a and b (nil means the cross product) through a
// Scan of score and returns the kept ones as a same-mapping, in probe order
// at every worker count. col is the filtered column, its keys tested by
// filter, tabulated here for every pair of them.
//
// A blocker's probe is A-major, so A's ordinals are cut into contiguous
// ranges of near-equal probe cost, and each range runs its rows — Scan.Row,
// then the probe's candidates of that row into Scan.Candidate — on one
// goroutine, into pointer-free columns of its own over model.IDs ordinals.
// Ranges concatenated in order are the stream — no sequence numbers, no
// sort — and its pairs are distinct, so the columns bulk-load and the
// mapping's pair index stays lazy. What the ranges share (the probe, the
// ordinal translations, the profile columns and the key table) exists
// before the first starts and is only read after.
func blockScore(a, b *model.ObjectSet, blocker block.Blocker, score func(ordA, ordB int) (float64, bool), filter sim.RowFilter, col *scoreColumn) *mapping.Mapping {
	if blocker == nil {
		blocker = block.CrossProduct{}
	}
	filter.Cover(col.colA.MaxCard() + col.colB.MaxCard())
	proto := Scan{Filter: filter, RowKeys: col.colA.Keys, Keys: col.colB.Keys, Score: score}
	probe := blocker.Probe(a, b)
	plan := par.SplitBy(a.Len(), 0, probe.Cost)
	domOrds, rngOrds := model.IDs.SetOrds(a), model.IDs.SetOrds(b)
	type kept struct {
		dom, rng []uint32
		sim      []float64
	}
	ranges := make([]kept, plan.Chunks())
	plan.Run(func(c, lo, hi int) {
		var k kept // not &ranges[c]: neighbours would share cache lines
		s := proto
		s.Sink = func(ordA, ordB int, v float64) {
			k.dom = append(k.dom, domOrds[ordA])
			k.rng = append(k.rng, rngOrds[ordB])
			k.sim = append(k.sim, min(max(v, 0), 1))
		}
		yield := s.Candidate
		for ordA := lo; ordA < hi; ordA++ {
			s.Row(ordA)
			probe.Row(ordA, yield)
		}
		flush(&s)
		ranges[c] = k
	})
	all := ranges[0]
	for _, k := range ranges[1:] {
		all.dom = append(all.dom, k.dom...)
		all.rng = append(all.rng, k.rng...)
		all.sim = append(all.sim, k.sim...)
	}
	return mapping.FromColumns(a.LDS(), b.LDS(), model.SameMappingType, all.dom, all.rng, all.sim)
}
