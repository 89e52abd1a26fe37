package sim

// Filter keys: the part of a set-measure profile the threshold bound reads.
//
// On the set measures (n-gram and token Dice and Jaccard) almost every
// candidate below a floor is settled before any merge, by the sizes of its
// two sets or by their signatures. Those are the only facts that test reads,
// so they are copied out of the profile into a Key of 24 pointer-free bytes,
// and a ProfileColumn keeps the keys of its profiles in a dense array beside
// them. The test is a RowFilter: the measure at one floor, with the overlap
// each total cardinality needs tabulated once per match call or resolver,
// and one side of the pair — the row — fixed. A candidate loop (match.Scan)
// sets the row once per batch A ordinal or resolve query and checks each
// candidate's key against it, reading a profile only past the filter.

import (
	"slices"

	"repro/internal/par"
)

// Key is the filter key of one set-measure profile: the length of the set
// the profile holds, its cardinality (larger than the length by a query's
// ExtraTokens) and its signature. The zero Key is that of an empty set.
type Key struct {
	n, card uint32
	sig     signature
}

// Keyed is implemented by the set measures, whose Compare stops below its
// floor on the profiles' keys alone for most pairs.
type Keyed interface {
	ProfiledSim
	// Key returns the filter key of a profile the measure built.
	Key(p *Profile) Key
	// RowFilter returns the measure's key test at floor, untabulated.
	RowFilter(floor float64) RowFilter
	// Merge is Compare for a pair whose keys passed RowFilter(floor):
	// Compare is that test, then Merge.
	Merge(a, b *Profile, ka, kb *Key, floor float64) float64
}

// RowFilter rejects a pair whose keys show that the two sets cannot share
// the overlap their coefficient needs to reach the floor (minOverlap), for
// the pairs whose one side is its row. A floor that asks for nothing, or an
// empty set (cardinality 0), is never rejected, so empty sets keep setSim's
// scores. The row is the empty set until Row sets it.
type RowFilter struct {
	dice  bool
	floor float64
	need  []int32 // minOverlap by total cardinality, as far as tabulated
	row   Key
}

// Cover tabulates the filter for every total cardinality up to maxTotal,
// unless it already is.
func (f *RowFilter) Cover(maxTotal int) {
	if !(f.floor > 0) || maxTotal < len(f.need) {
		return
	}
	f.need = make([]int32, maxTotal+1)
	for total := range f.need {
		f.need[total] = int32(minOverlap(total, f.dice, f.floor))
	}
}

// Row makes the set with key a the filter's row.
func (f *RowFilter) Row(a Key) { f.row = a }

// Off reports whether the filter rejects nothing.
func (f *RowFilter) Off() bool { return f.row.card == 0 || !(f.floor > 0) }

// Rejects reports whether the row and a set with key b fall below the floor
// on the keys alone. Each signature bit of one set that the other lacks is
// an element outside the other, so the sets share at most reach elements.
func (f *RowFilter) Rejects(b *Key) bool {
	c, total := int(b.card), int(f.row.card)+int(b.card)
	if total >= len(f.need) {
		return !f.Off() && c > 0 && reach(&f.row, b) < minOverlap(total, f.dice, f.floor)
	}
	return c > 0 && f.row.card > 0 && reach(&f.row, b) < int(f.need[total])
}

func reach(a, b *Key) int {
	return min(int(a.n)-a.sig.lacking(&b.sig), int(b.n)-b.sig.lacking(&a.sig))
}

// rejects is the test of one pair.
func (f RowFilter) rejects(a, b *Key) bool {
	f.Row(*a)
	return f.Rejects(b)
}

// compareKeyed is Compare for a pair handed over with its keys.
func compareKeyed(k Keyed, a, b *Profile, ka, kb *Key, floor float64) float64 {
	if k.RowFilter(floor).rejects(ka, kb) {
		return stopped
	}
	return k.Merge(a, b, ka, kb, floor)
}

func (g ngramProfiled) Key(p *Profile) Key {
	return Key{n: uint32(len(p.Grams)), card: uint32(len(p.Grams)), sig: p.sig}
}

func (g ngramProfiled) RowFilter(floor float64) RowFilter {
	return RowFilter{dice: g.dice, floor: floor}
}

func (g ngramProfiled) Merge(a, b *Profile, ka, kb *Key, floor float64) float64 {
	return setSim(a.Grams, b.Grams, ka, kb, g.dice, floor)
}

func (tokenProfiled) Key(p *Profile) Key {
	n := len(p.SortedTokenIDs)
	return Key{n: uint32(n), card: uint32(n + p.ExtraTokens), sig: p.sig}
}

func (t tokenProfiled) RowFilter(floor float64) RowFilter {
	return RowFilter{dice: t.dice, floor: floor}
}

func (t tokenProfiled) Merge(a, b *Profile, ka, kb *Key, floor float64) float64 {
	return setSim(a.SortedTokenIDs, b.SortedTokenIDs, ka, kb, t.dice, floor)
}

// ProfileColumn is one measure's profiles of a run of values, aligned by
// ordinal, with the keys of a Keyed measure's profiles in a dense array
// beside them. Append and Set keep the two aligned; a nil profile (a
// resolver's tombstone) has the zero key.
type ProfileColumn struct {
	Profs []*Profile
	// Keys holds Key(Profs[i]) at i; it is nil when the measure is not Keyed.
	Keys    []Key
	keyed   Keyed
	maxCard int // the largest cardinality a key has had
}

// NewProfileColumn returns an empty column of the measure with room for n
// profiles.
func NewProfileColumn(ps ProfiledSim, n int) ProfileColumn {
	c := ProfileColumn{Profs: make([]*Profile, 0, n)}
	if k, ok := ps.(Keyed); ok {
		c.keyed, c.Keys = k, make([]Key, 0, n)
	}
	return c
}

// BuildProfileColumn returns the measure's column of n values, the profile
// of value(i) at ordinal i, in one backing array. It is the one bulk
// profile build. The ordinals are split by par.Split, and each chunk
// profiles its range with its own Scratch; the keys are written in place
// and MaxCard is reduced after the join, so the column is the same at every
// worker count. A QueryProfiler's ProfileInto interns, and the dictionary
// numbers terms by first sight, so such a measure builds on the calling
// goroutine in ordinal order. value must be safe for concurrent use.
func BuildProfileColumn(ps ProfiledSim, n int, value func(ord int) string) ProfileColumn {
	profs := make([]Profile, n)
	c := ProfileColumn{Profs: make([]*Profile, n)}
	if k, ok := ps.(Keyed); ok {
		c.keyed, c.Keys = k, make([]Key, n)
	}
	plan := par.Split(n, 0)
	if _, interns := ps.(QueryProfiler); interns {
		plan = par.Split(n, 1)
	}
	maxCard := make([]int, plan.Chunks())
	plan.Run(func(chunk, lo, hi int) {
		var sc Scratch
		m := 0
		for i := lo; i < hi; i++ {
			p := &profs[i]
			ps.ProfileInto(value(i), p, &sc)
			c.Profs[i] = p
			if c.keyed != nil {
				c.Keys[i] = c.keyed.Key(p)
				m = max(m, int(c.Keys[i].card))
			}
		}
		maxCard[chunk] = m
	})
	c.maxCard = slices.Max(maxCard)
	return c
}

// KeyOf returns the key of p under the column's measure: the zero Key for a
// nil profile or a measure that is not Keyed.
func (c *ProfileColumn) KeyOf(p *Profile) Key {
	if c.keyed == nil || p == nil {
		return Key{}
	}
	return c.keyed.Key(p)
}

// MaxCard bounds the cardinality of every key the column holds.
func (c *ProfileColumn) MaxCard() int { return c.maxCard }

// Append adds a profile and its key at the next ordinal.
func (c *ProfileColumn) Append(p *Profile) {
	c.Profs = append(c.Profs, p)
	if c.keyed != nil {
		c.Keys = append(c.Keys, Key{})
		c.Set(len(c.Keys)-1, p)
	}
}

// Set replaces the profile at ordinal i, and its key.
func (c *ProfileColumn) Set(i int, p *Profile) {
	c.Profs[i] = p
	if c.keyed != nil {
		c.Keys[i] = c.KeyOf(p)
		c.maxCard = max(c.maxCard, int(c.Keys[i].card))
	}
}

// At returns the profile at ordinal i and its key, nil when the column has
// no keys. It loads the profile pointer without dereferencing it.
func (c *ProfileColumn) At(i int) (*Profile, *Key) {
	if c.keyed == nil {
		return c.Profs[i], nil
	}
	return c.Profs[i], &c.Keys[i]
}
