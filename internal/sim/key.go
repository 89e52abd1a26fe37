package sim

// Filter keys: the part of a set-measure profile the threshold bound reads.
//
// On the set measures (n-gram and token Dice and Jaccard) almost every
// candidate below a floor is settled before any merge, by the sizes of its
// two sets or by their signatures. Those are the only facts that test reads,
// so a measure's ProfileInto writes them into a Key of 24 pointer-free
// bytes, and a ProfileColumn keeps the keys of its slots in a dense array
// beside the slabs. The test is a RowFilter: the measure at one floor, with the overlap
// each total cardinality needs tabulated once per match call or resolver,
// and one side of the pair — the row — fixed. A candidate loop (match.Scan)
// sets the row once per batch A ordinal or resolve query and checks each
// candidate's key against it, reading a slab only past the filter.

// Key is the filter key of one set-measure profile: the length of the set
// the profile holds, its cardinality (larger than the length by the
// distinct tokens a lookup-only query profile found in no dictionary) and
// its signature. The zero Key is that of an empty set.
type Key struct {
	n, card uint32
	sig     signature
}

// Keyed is implemented by the set measures, whose Compare stops below its
// floor on the slots' keys alone for most pairs. ProfileInto keys every
// slot it appends (ProfileColumn.Keys).
type Keyed interface {
	ProfiledSim
	// RowFilter returns the measure's key test at floor, untabulated.
	RowFilter(floor float64) RowFilter
	// Merge is Compare for a pair whose keys passed RowFilter(floor):
	// Compare is that test, then Merge.
	Merge(a, b Ref, floor float64) float64
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

// compareKeyed is Compare through a Keyed measure's key test.
func compareKeyed(k Keyed, a, b Ref, floor float64) float64 {
	if k.RowFilter(floor).rejects(a.key(), b.key()) {
		return stopped
	}
	return k.Merge(a, b, floor)
}

func (g ngramProfiled) RowFilter(floor float64) RowFilter {
	return RowFilter{dice: g.dice, floor: floor}
}

func (g ngramProfiled) Merge(a, b Ref, floor float64) float64 {
	return setSim(a.grams(), b.grams(), a.key(), b.key(), g.dice, floor)
}

func (t tokenProfiled) RowFilter(floor float64) RowFilter {
	return RowFilter{dice: t.dice, floor: floor}
}

func (t tokenProfiled) Merge(a, b Ref, floor float64) float64 {
	return setSim(a.toks(), b.toks(), a.key(), b.key(), t.dice, floor)
}
