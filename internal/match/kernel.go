package match

import (
	"repro/internal/block"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/par"
)

// scoreFunc scores the candidate at ordinals (ordA, ordB) of the two match
// inputs and reports whether it is kept. A negative similarity says a floor
// ended the scoring early (sim.ProfiledSim.Compare); a negative ordinal names
// an id absent from its input, which only a blocker outside package block
// emits. Ranges call it concurrently: it reads columns built beforehand.
type scoreFunc func(ordA, ordB int) (sim float64, keep bool)

// kept is what one range of A hands back: its kept correspondences as
// pointer-free columns over model.IDs ordinals, in stream order, and its
// counts, which reach the moma_match_* counters once per range — the
// per-candidate loop carries no atomic traffic.
type kept struct {
	dom, rng []uint32
	sim      []float64

	pairs, rows, pruned uint64
}

// consider scores one candidate, counts it and reports whether it is kept.
func (k *kept) consider(score scoreFunc, ordA, ordB int) (float64, bool) {
	k.pairs++
	s, keep := score(ordA, ordB)
	if keep {
		k.rows++
	} else if s < 0 {
		k.pruned++
	}
	return s, keep
}

func (k *kept) flush() {
	matchPairsTotal.Add(k.pairs)
	matchKeptTotal.Add(k.rows)
	matchPrunedTotal.Add(k.pruned)
}

// blockScore is the block → score kernel of the batch matchers: it streams
// the blocker's candidates over a and b (nil means the cross product)
// through score and returns the kept ones as a same-mapping, in stream order
// at every worker count.
//
// A block.RangeBlocker is A-major, so A's ordinals are cut into contiguous
// ranges of near-equal probe cost and each range runs probe → score → keep
// on one goroutine into columns of its own. Ranges concatenated in order are
// the stream — no sequence numbers, no sort — and its pairs are distinct, so
// the columns bulk-load and the mapping's pair index stays lazy. What the
// ranges share (the probe, the ordinal translations, the profile columns
// behind score) exists before the first starts and is only read after.
//
// Any other blocker may stream in any order, repeat a pair or name an id
// neither input holds: it is scored as one range, into the id-level AddMax.
func blockScore(a, b *model.ObjectSet, blocker block.Blocker, workers int, score scoreFunc) *mapping.Mapping {
	if blocker == nil {
		blocker = block.CrossProduct{}
	}
	rb, ok := blocker.(block.RangeBlocker)
	if !ok {
		out := mapping.NewSame(a.LDS(), b.LDS())
		var k kept
		blocker.PairsEach(a, b, func(p block.Pair) bool {
			if s, keep := k.consider(score, a.IndexOf(p.A), b.IndexOf(p.B)); keep {
				out.AddMax(p.A, p.B, s)
			}
			return true
		})
		k.flush()
		return out
	}
	probe := rb.Probe(a, b)
	plan := par.SplitBy(a.Len(), workers, probe.Cost)
	domOrds, rngOrds := model.IDs.SetOrds(a), model.IDs.SetOrds(b)
	ranges := make([]kept, plan.Chunks())
	plan.Run(func(c, lo, hi int) {
		var k kept // not &ranges[c]: neighbours would share cache lines under pairs++
		probe.PairsRange(lo, hi, func(ordA, ordB int) bool {
			if s, keep := k.consider(score, ordA, ordB); keep {
				k.dom = append(k.dom, domOrds[ordA])
				k.rng = append(k.rng, rngOrds[ordB])
				k.sim = append(k.sim, min(max(s, 0), 1))
			}
			return true
		})
		k.flush()
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
