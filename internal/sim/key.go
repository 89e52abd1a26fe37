package sim

// Filter keys: the part of a set-measure profile the threshold bound reads.
//
// On the set measures (n-gram and token Dice and Jaccard) almost every
// candidate below a floor is settled before any merge, by the sizes of its
// two sets or by their signatures. Those are the only facts that test reads,
// so they are copied out of the profile into a Key of 24 pointer-free bytes,
// and a ProfileColumn keeps the keys of its profiles in a dense array beside
// them: a scoring loop checks a candidate's key at the column's floor and
// dereferences the candidate's profile only when the key lets it through.

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
	// CompareKeyed is Compare(a, b, floor) for a pair handed over with its
	// keys ka and kb: it checks the keys first and reads neither profile
	// when they reject. Compare is CompareKeyed over the keys it builds, so
	// the two agree bit for bit.
	CompareKeyed(a, b *Profile, ka, kb *Key, floor float64) float64
}

// keyRejects is the size and signature test in front of setSim's merge: it
// reports whether the keys show that two sets cannot share minOverlap's
// need, the overlap their coefficient needs to reach floor. There is nothing
// to test under a floor that asks for nothing or with an empty set, so a key
// with cardinality 0 is never rejected and empty sets keep setSim's scores.
func keyRejects(a, b *Key, dice bool, floor float64) bool {
	if !(floor > 0) || a.card == 0 || b.card == 0 {
		return false
	}
	// Each signature bit of A that B lacks is an element of A outside B, so
	// the sets share at most reach elements — which is also at most either
	// set's size.
	reach := min(int(a.n)-a.sig.lacking(&b.sig), int(b.n)-b.sig.lacking(&a.sig))
	total := int(a.card) + int(b.card)
	// need is overlapCeil or one less: only a reach of exactly one less
	// takes minOverlap's check that tells the two apart.
	if c := overlapCeil(total, dice, floor); reach != c-1 {
		return reach < c
	}
	return reach < minOverlap(total, dice, floor)
}

func (g ngramProfiled) Key(p *Profile) Key {
	return Key{n: uint32(len(p.Grams)), card: uint32(len(p.Grams)), sig: p.sig}
}

func (g ngramProfiled) CompareKeyed(a, b *Profile, ka, kb *Key, floor float64) float64 {
	if keyRejects(ka, kb, g.dice, floor) {
		return stopped
	}
	return setSim(a.Grams, b.Grams, ka, kb, g.dice, floor)
}

func (tokenProfiled) Key(p *Profile) Key {
	n := len(p.SortedTokenIDs)
	return Key{n: uint32(n), card: uint32(n + p.ExtraTokens), sig: p.sig}
}

func (t tokenProfiled) CompareKeyed(a, b *Profile, ka, kb *Key, floor float64) float64 {
	if keyRejects(ka, kb, t.dice, floor) {
		return stopped
	}
	return setSim(a.SortedTokenIDs, b.SortedTokenIDs, ka, kb, t.dice, floor)
}

// ProfileColumn is one measure's profiles of a run of values, aligned by
// ordinal, with the keys of a Keyed measure's profiles in a dense array
// beside them. Append and Set keep the two aligned; a nil profile (a
// resolver's tombstone) has the zero key.
type ProfileColumn struct {
	Profs []*Profile
	// Keys holds Key(Profs[i]) at i; it is nil when the measure is not Keyed.
	Keys  []Key
	keyed Keyed
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

// KeyOf returns the key of p under the column's measure: the zero Key for a
// nil profile or a measure that is not Keyed.
func (c *ProfileColumn) KeyOf(p *Profile) Key {
	if c.keyed == nil || p == nil {
		return Key{}
	}
	return c.keyed.Key(p)
}

// Append adds a profile and its key at the next ordinal.
func (c *ProfileColumn) Append(p *Profile) {
	c.Profs = append(c.Profs, p)
	if c.keyed != nil {
		c.Keys = append(c.Keys, c.KeyOf(p))
	}
}

// Set replaces the profile at ordinal i, and its key.
func (c *ProfileColumn) Set(i int, p *Profile) {
	c.Profs[i] = p
	if c.keyed != nil {
		c.Keys[i] = c.KeyOf(p)
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
