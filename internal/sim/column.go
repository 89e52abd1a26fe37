package sim

// Profile columns: one measure's profiles of a run of values, in
// pointer-free slabs.
//
// A column is what a matcher keeps per set and attribute and what a live
// resolver keeps resident, so its shape is the resident cost of a value. A
// slot holds what its measure reads and nothing else: an n-gram set is its
// hashes in one []uint64 slab that every slot of the column shares, a token
// set its term IDs in a []uint32 slab, the character and token-sequence
// measures their runes in a []rune slab, a TF-IDF vector its weighted terms
// in one slab of terms and its norm beside; each such slot names its part of
// the slab by a span. A Soundex code, a year or the string of an equality
// measure is one fixed-size entry per slot instead. Beside either, the
// slots of a Keyed measure have their filter keys (key.go). A measure's
// ProfileInto appends a slot to a column; Compare reads two slots through
// Refs. A single value's profile (a query, a string form's operand) is a
// one-slot column, Profile.
//
// A slab is the bulk a build or a rewrite sized once and a tail that later
// payloads are appended to, so a value added to a built column (Append,
// Set: a resolver's Add) never copies the bulk. A slot rewritten (Set)
// takes its new payload at the tail's end, and a dropped one (Drop: a
// resolver's tombstone) lets go of its payload. The column counts the
// elements no slot covers any more: once they outnumber the covered ones in
// the tail, the tail is rewritten (a resolver's add-and-remove churn lives
// there), and once they do so in the whole slab, the slab. Compact, which
// drops the tombstones themselves, is the same one rewrite.

import (
	"math"
	"unicode/utf8"

	"repro/internal/par"
)

// layout is what a slot of a measure's column holds besides its filter
// key: a payload in one of the slabs, named by the slot's span, or one
// entry of a per-slot array.
type layout uint8

const (
	gramSlab  layout = iota // hashed n-grams in grams
	tokenSlab               // term IDs in toks
	runeSlab                // runes in runes
	termSlab                // TF-IDF terms in terms, the vector's norm in vecs
	strSlot                 // a string in strs
	codeSlot                // a Soundex code in codes
	yearSlot                // a year in years
)

// spanned reports whether a slot of the layout is a span of a slab.
func (l layout) spanned() bool { return l <= termSlab }

// span is the part [lo, hi) of its layout's slab a slot's payload is.
type span struct{ lo, hi uint32 }

// slab holds one kind of payload: bulk, which a build or a rewrite sized
// once and which is not appended to after, and tail, where every later
// payload is appended (a window's and a one-slot profile's only part).
// Offsets run over bulk, then tail. dead counts the elements no slot spans
// any more, tailDead those of them in the tail.
type slab[T any] struct {
	bulk, tail     []T
	dead, tailDead int
}

// get returns the payload s spans.
func (b *slab[T]) get(s span) []T {
	if n := uint32(len(b.bulk)); s.lo >= n {
		return b.tail[s.lo-n : s.hi-n]
	}
	return b.bulk[s.lo:s.hi]
}

// payloads is a column's slab, whatever its element: what the build, Drop,
// Set and Compact do to it.
type payloads interface {
	// end is the offset the next payload starts at.
	end() int
	// tailCap is the capacity of the tail; alloc replaces the tail by an
	// empty one with room for n elements.
	tailCap() int
	alloc(n int)
	// cutTail makes w's tail (w a slab of the same element) the part
	// [from, to) of this tail, at length 0: what is appended to it lands
	// in this tail.
	cutTail(w payloads, from, to int)
	// slide moves the tail's n elements at src to dst, and cutTo cuts the
	// tail to n.
	slide(dst, src, n int)
	cutTo(n int)
	// seal makes the tail of a slab without bulk its bulk: a fresh build's
	// or rewrite's payloads, which no later payload is appended to.
	seal()
	// free counts the payload s as dead; deadLen is the count.
	free(s span)
	deadLen() int
	// copyFrom appends the payload s of src (a slab of the same element)
	// and returns its span.
	copyFrom(src payloads, s span) span
	// reclaimTail rewrites the tail to the payloads spans still cover and
	// moves their spans, once its dead elements outnumber its live ones.
	reclaimTail(spans []span)
}

func (b *slab[T]) end() int     { return len(b.bulk) + len(b.tail) }
func (b *slab[T]) tailCap() int { return cap(b.tail) }
func (b *slab[T]) alloc(n int)  { b.tail = make([]T, 0, n) }
func (b *slab[T]) cutTo(n int)  { b.tail = b.tail[:n] }
func (b *slab[T]) slide(dst, src, n int) {
	copy(b.tail[dst:dst+n], b.tail[src:src+n])
}

func (b *slab[T]) cutTail(w payloads, from, to int) {
	w.(*slab[T]).tail = b.tail[from:from:to]
}

func (b *slab[T]) seal() {
	if b.bulk == nil {
		b.bulk, b.tail = b.tail, nil
	}
}

func (b *slab[T]) deadLen() int { return b.dead }

func (b *slab[T]) free(s span) {
	n := int(s.hi - s.lo)
	b.dead += n
	if s.lo >= uint32(len(b.bulk)) {
		b.tailDead += n
	}
}

func (b *slab[T]) copyFrom(src payloads, s span) span {
	lo := b.end()
	b.tail = append(b.tail, src.(*slab[T]).get(s)...)
	return span{uint32(lo), uint32(b.end())}
}

// minTailDead is the dead tail below which reclaimTail leaves the tail be:
// a rewrite walks every span.
const minTailDead = 1 << 12

func (b *slab[T]) reclaimTail(spans []span) {
	if b.tailDead < minTailDead || b.tailDead <= len(b.tail)-b.tailDead {
		return
	}
	n := uint32(len(b.bulk))
	tail := make([]T, 0, len(b.tail)-b.tailDead)
	for i, s := range spans {
		if s.lo < n {
			continue
		}
		lo := n + uint32(len(tail))
		tail = append(tail, b.get(s)...)
		spans[i] = span{lo, n + uint32(len(tail))}
	}
	b.tail = tail
	b.dead -= b.tailDead
	b.tailDead = 0
}

// tfTerm is one term of a TF-IDF vector: its content key (Dict.Key), which
// orders the vector, its tf-idf weight and its Terms ID.
type tfTerm struct {
	key uint64
	w   float64
	id  uint32
}

// tfVec is the per-slot part of a TF-IDF vector: the squared Euclidean norm
// of its weights and its count of distinct terms, both including the terms
// a lookup-only query vector leaves out of its slab.
type tfVec struct {
	norm2 float64
	n     uint32
}

// noYear is the year of a value that does not parse as one: parseYearInt
// returns at most 18 digits, so no year is this.
const noYear = math.MinInt64

// ProfileColumn is one measure's profiles of a run of values, aligned by
// ordinal, with the keys of a Keyed measure's profiles in a dense array
// beside them. The zero ProfileColumn is not usable: columns come from
// NewProfileColumn and BuildProfileColumn.
type ProfileColumn struct {
	// Keys holds each slot's filter key; it is nil when the measure is not
	// Keyed. A dropped slot has the zero key.
	Keys []Key

	ps      ProfiledSim
	lay     layout
	maxCard int // the largest cardinality a key has had

	spans []span
	grams slab[uint64]
	toks  slab[uint32]
	runes slab[rune]
	terms slab[tfTerm]
	vecs  []tfVec
	strs  []string
	codes [][4]byte
	years []int64
}

// NewProfileColumn returns an empty column of the measure with room for n
// slots.
func NewProfileColumn(ps ProfiledSim, n int) ProfileColumn {
	c := ProfileColumn{ps: ps}
	c.lay, _ = ps.layout()
	if _, ok := ps.(Keyed); ok {
		c.Keys = make([]Key, 0, n)
	}
	switch c.lay {
	case strSlot:
		c.strs = make([]string, 0, n)
	case codeSlot:
		c.codes = make([][4]byte, 0, n)
	case yearSlot:
		c.years = make([]int64, 0, n)
	case termSlab:
		c.vecs = make([]tfVec, 0, n)
		fallthrough
	default:
		c.spans = make([]span, 0, n)
	}
	return c
}

// BuildProfileColumn returns the measure's column of n values, the profile
// of value(i) at ordinal i. It is the one bulk profile build. The ordinals
// are split by par.Split, and each chunk profiles its range with its own
// Scratch straight into the column: the slab is allocated once, at the sum
// of the values' bounds (their runes, plus the measure's pad), each chunk
// fills the part from its own values' bounds on, and the parts then close
// up in place — the build never holds a second copy of the slab, and the
// slab keeps as spare capacity only what the bounds overestimate. The keys
// are written in place and MaxCard is reduced after the join, so the
// column is the same at every worker count. A QueryProfiler's ProfileInto
// interns, and the dictionary numbers terms by first sight, so such a
// measure builds on the calling goroutine in ordinal order, its slab grown
// as it goes. value must be safe for concurrent use.
func BuildProfileColumn(ps ProfiledSim, n int, value func(ord int) string) ProfileColumn {
	c := NewProfileColumn(ps, n)
	if _, interns := ps.(QueryProfiler); interns {
		var sc Scratch
		for i := range n {
			ps.ProfileInto(value(i), &c, &sc)
		}
		c.payload().seal()
		return c
	}
	plan := par.Split(n, 0)
	// from[k] is where chunk k's part of the slab starts.
	from := make([]int, plan.Chunks()+1)
	if _, pad := ps.layout(); c.lay.spanned() {
		plan.Run(func(k, lo, hi int) {
			b := 0
			for i := lo; i < hi; i++ {
				b += utf8.RuneCountInString(value(i)) + pad
			}
			from[k+1] = b
		})
		for k := range plan.Chunks() {
			from[k+1] += from[k]
		}
		c.payload().alloc(from[plan.Chunks()])
	}
	parts := make([]ProfileColumn, plan.Chunks())
	plan.Run(func(k, lo, hi int) {
		w := c.window(lo, hi, from[k], from[k+1])
		var sc Scratch
		for i := lo; i < hi; i++ {
			ps.ProfileInto(value(i), &w, &sc)
		}
		if w.lay.spanned() && w.payload().tailCap() != from[k+1]-from[k] {
			panic("sim: a profile outgrew its bound")
		}
		parts[k] = w
	})
	c.join(n, plan, from, parts)
	return c
}

// window returns a column of slots [lo, hi) whose arrays are those of c,
// cut to length 0 at lo with room up to hi, and whose slab is c's from
// slab offset from to to: what ProfileInto appends to it lands in c's
// arrays.
func (c *ProfileColumn) window(lo, hi, from, to int) ProfileColumn {
	w := ProfileColumn{ps: c.ps, lay: c.lay}
	w.Keys = cut(c.Keys, lo, hi)
	w.spans = cut(c.spans, lo, hi)
	w.strs = cut(c.strs, lo, hi)
	w.codes = cut(c.codes, lo, hi)
	w.years = cut(c.years, lo, hi)
	if c.lay.spanned() {
		c.payload().cutTail(w.payload(), from, to)
	}
	return w
}

// cut returns s from lo with length 0 and room up to hi, nil for nil s.
func cut[T any](s []T, lo, hi int) []T {
	if s == nil {
		return nil
	}
	return s[lo:lo:hi]
}

// join makes c the column of n slots its windows wrote: every per-slot
// array at its full length, each chunk's part of the slab moved down to
// where the parts before it end, and its spans with it; the slab is sealed.
func (c *ProfileColumn) join(n int, plan par.Plan, from []int, parts []ProfileColumn) {
	c.Keys, c.spans, c.strs = full(c.Keys, n), full(c.spans, n), full(c.strs, n)
	c.codes, c.years = full(c.codes, n), full(c.years, n)
	for k := range parts {
		c.maxCard = max(c.maxCard, parts[k].maxCard)
	}
	if !c.lay.spanned() {
		return
	}
	pl, end := c.payload(), 0
	for k := range parts {
		used := parts[k].payload().end()
		pl.slide(end, from[k], used)
		// A window's spans start at its own part of the slab.
		if end != 0 {
			lo, hi := plan.Bounds(k)
			for i := lo; i < hi; i++ {
				c.spans[i].lo += uint32(end)
				c.spans[i].hi += uint32(end)
			}
		}
		end += used
	}
	pl.cutTo(end)
	pl.seal()
}

// full returns s at length n, nil for nil s.
func full[T any](s []T, n int) []T {
	if s == nil {
		return nil
	}
	return s[:n]
}

// payload returns the column's slab, nil for a layout without one.
func (c *ProfileColumn) payload() payloads {
	switch c.lay {
	case gramSlab:
		return &c.grams
	case tokenSlab:
		return &c.toks
	case runeSlab:
		return &c.runes
	case termSlab:
		return &c.terms
	}
	return nil
}

// reset empties the column for a rebuild as a column of the layout,
// keeping the capacity of every array: a query profile (QueryInto) or a
// string form's operand.
func (c *ProfileColumn) reset(lay layout) {
	*c = ProfileColumn{lay: lay, Keys: c.Keys[:0], spans: c.spans[:0],
		grams: slab[uint64]{tail: c.grams.tail[:0]}, toks: slab[uint32]{tail: c.toks.tail[:0]},
		runes: slab[rune]{tail: c.runes.tail[:0]}, terms: slab[tfTerm]{tail: c.terms.tail[:0]},
		vecs: c.vecs[:0], strs: c.strs[:0], codes: c.codes[:0], years: c.years[:0]}
}

// pushSpan ends a slot whose payload is [lo, hi) of its layout's slab,
// offsets over bulk and tail (slab.end).
func (c *ProfileColumn) pushSpan(lo, hi int) {
	c.spans = append(c.spans, span{uint32(lo), uint32(hi)})
}

// pushKey appends a slot's filter key.
func (c *ProfileColumn) pushKey(k Key) {
	c.Keys = append(c.Keys, k)
	c.maxCard = max(c.maxCard, int(k.card))
}

// Len returns the number of slots.
func (c *ProfileColumn) Len() int {
	switch c.lay {
	case strSlot:
		return len(c.strs)
	case codeSlot:
		return len(c.codes)
	case yearSlot:
		return len(c.years)
	}
	return len(c.spans)
}

// MaxCard bounds the cardinality of every key the column holds.
func (c *ProfileColumn) MaxCard() int { return c.maxCard }

// At returns slot i.
func (c *ProfileColumn) At(i int) Ref { return Ref{c, i} }

// Key returns the filter key of slot i: the zero Key when the measure is
// not Keyed.
func (c *ProfileColumn) Key(i int) Key {
	if i < len(c.Keys) {
		return c.Keys[i]
	}
	return Key{}
}

// Append profiles s, interning as the measure does, as the next slot.
func (c *ProfileColumn) Append(s string) {
	w := pairPool.Get().(*pair)
	c.ps.ProfileInto(s, c, &w.sc)
	pairPool.Put(w)
}

// Set profiles s as slot i: its payload goes to the tail's end, and the one
// it replaces is left behind (see Drop).
func (c *ProfileColumn) Set(i int, s string) {
	c.Append(s)
	c.clear(i)
	c.Keys = moveLast(c.Keys, i)
	c.spans = moveLast(c.spans, i)
	c.vecs = moveLast(c.vecs, i)
	c.strs = moveLast(c.strs, i)
	c.codes = moveLast(c.codes, i)
	c.years = moveLast(c.years, i)
	c.reclaim()
}

// moveLast moves the last element of s to i and cuts it off; s is empty
// when the layout does not use it.
func moveLast[T any](s []T, i int) []T {
	if len(s) == 0 {
		return s
	}
	last := len(s) - 1
	var zero T
	s[i], s[last] = s[last], zero
	return s[:last]
}

// Drop empties slot i — the profile of the empty value, and the zero key —
// and lets go of its payload: the slab elements it spanned are dead. Once
// the dead elements outnumber the live ones in the tail, the tail is
// rewritten; once they do so in the whole slab, the slab, keeping MaxCard.
// Compact always rewrites.
func (c *ProfileColumn) Drop(i int) {
	c.clear(i)
	c.reclaim()
}

// clear empties slot i and counts its payload dead.
func (c *ProfileColumn) clear(i int) {
	if c.lay.spanned() {
		c.payload().free(c.spans[i])
		c.spans[i] = span{}
	}
	if c.Keys != nil {
		c.Keys[i] = Key{}
	}
	switch c.lay {
	case termSlab:
		c.vecs[i] = tfVec{}
	case strSlot:
		c.strs[i] = ""
	case codeSlot:
		c.codes[i] = [4]byte{}
	case yearSlot:
		c.years[i] = noYear
	}
}

// reclaim rewrites what clear left behind: see Drop.
func (c *ProfileColumn) reclaim() {
	if !c.lay.spanned() {
		return
	}
	pl := c.payload()
	pl.reclaimTail(c.spans)
	if pl.deadLen() > pl.end()-pl.deadLen() {
		maxCard := c.maxCard
		*c = c.Compact(nil)
		c.maxCard = maxCard
	}
}

// Compact returns the column of the slots keep marks (every slot for a nil
// keep), in order, their payloads in one fresh slab of exactly their size:
// what Drop and Set left behind is gone, and MaxCard is the kept keys'.
func (c *ProfileColumn) Compact(keep []bool) ProfileColumn {
	n, size := 0, 0
	for i := range c.Len() {
		if keep == nil || keep[i] {
			n++
			if c.lay.spanned() {
				size += int(c.spans[i].hi - c.spans[i].lo)
			}
		}
	}
	out := NewProfileColumn(c.ps, n)
	if c.lay.spanned() {
		out.payload().alloc(size)
	}
	for i := range c.Len() {
		if keep == nil || keep[i] {
			out.copySlot(c, i)
		}
	}
	if c.lay.spanned() {
		out.payload().seal()
	}
	return out
}

// copySlot appends slot i of src, a column of the same measure.
func (c *ProfileColumn) copySlot(src *ProfileColumn, i int) {
	if c.lay.spanned() {
		c.spans = append(c.spans, c.payload().copyFrom(src.payload(), src.spans[i]))
	}
	switch c.lay {
	case termSlab:
		c.vecs = append(c.vecs, src.vecs[i])
	case strSlot:
		c.strs = append(c.strs, src.strs[i])
	case codeSlot:
		c.codes = append(c.codes, src.codes[i])
	case yearSlot:
		c.years = append(c.years, src.years[i])
	}
	if src.Keys != nil {
		c.pushKey(src.Keys[i])
	}
}

// Ref names one slot of a column: what Compare scores. It is two words,
// and a column's slots are read through it in place.
type Ref struct {
	c *ProfileColumn
	i int
}

func (r Ref) key() *Key { return &r.c.Keys[r.i] }

func (r Ref) grams() []uint64 { return r.c.grams.get(r.c.spans[r.i]) }
func (r Ref) toks() []uint32  { return r.c.toks.get(r.c.spans[r.i]) }
func (r Ref) runes() []rune   { return r.c.runes.get(r.c.spans[r.i]) }

func (r Ref) terms() ([]tfTerm, *tfVec) {
	return r.c.terms.get(r.c.spans[r.i]), &r.c.vecs[r.i]
}

func (r Ref) str() string   { return r.c.strs[r.i] }
func (r Ref) code() [4]byte { return r.c.codes[r.i] }
func (r Ref) year() int64   { return r.c.years[r.i] }
