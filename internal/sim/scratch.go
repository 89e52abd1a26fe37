package sim

// Scratch and the byte-level stages every ProfileInto is assembled from:
// one normalizer, one rune decoder, one tokenizer with dictionary lookup, one
// year parser. They write into caller-owned buffers, so once the buffers
// have grown to the working-set high-water mark a profile rebuild performs
// zero heap allocations; testing.AllocsPerRun gates in sim and live pin that
// property.

import (
	"bytes"
	"cmp"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Scratch holds the working memory of ProfileInto. The zero value is ready
// to use; buffers grow to the high-water mark of the values profiled through
// them and are then reused without further allocation. A Scratch is not safe
// for concurrent use; pool or per-goroutine it.
type Scratch struct {
	norm  []byte // normalized value bytes
	runes []rune // padded rune window for gram hashing
	terms []term // the value's token occurrences (token-set and TF-IDF measures)
	// hashes holds a value's gram hashes before sortHashes orders them into
	// the profile, bucketed by buckets' counts.
	hashes  []uint64
	buckets []uint32
}

// term is one token occurrence: its byte range within Scratch.norm, its
// content key, and its Terms ID when the dictionary knows it.
type term struct {
	start, end int
	key        uint64
	id         uint32
	known      bool
}

// grow returns s cut to length 0 with room for n elements.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// appendNormalized appends the normalized form of s to dst: letters and
// digits lowercased, runs of whitespace and of '-', '_', '/' collapsed to
// one space, everything else dropped, no space at either end.
func appendNormalized(dst []byte, s string) []byte {
	lastSpace := true
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			dst = utf8.AppendRune(dst, unicode.ToLower(r))
			lastSpace = false
		case unicode.IsSpace(r) || r == '-' || r == '_' || r == '/':
			if !lastSpace {
				dst = append(dst, ' ')
				lastSpace = true
			}
		}
	}
	for len(dst) > 0 && dst[len(dst)-1] == ' ' {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// appendRunes appends the runes of norm to dst between pad leading '\x01'
// and pad trailing '\x02' sentinels.
func appendRunes(dst []rune, norm []byte, pad int) []rune {
	for i := 0; i < pad; i++ {
		dst = append(dst, '\x01')
	}
	for i := 0; i < len(norm); {
		r, size := utf8.DecodeRune(norm[i:])
		dst = append(dst, r)
		i += size
	}
	for i := 0; i < pad; i++ {
		dst = append(dst, '\x02')
	}
	return dst
}

// tokenEnd returns the end of the token of norm that starts at start.
func tokenEnd(norm []byte, start int) int {
	end := start
	for end < len(norm) && norm[end] != ' ' {
		end++
	}
	return end
}

// lookupBytes is Lookup over a byte-slice token, also returning the token's
// content key: the compiler recognizes the map[string]-indexed-by-
// string(bytes) form and probes without materializing the string.
func (d *Dict) lookupBytes(tok []byte) (id uint32, key uint64, ok bool) {
	key = fnvOffset64
	for i := 0; i < len(tok); i++ {
		key ^= uint64(tok[i])
		key *= fnvPrime64
	}
	sh := &d.shards[key&dictShardMask]
	sh.mu.RLock()
	id, ok = sh.ids[string(tok)] // string(bytes) used only as a map key does not allocate
	sh.mu.RUnlock()
	return id, key, ok
}

// AppendLookupTokenIDs is TokenIDs without interning, over caller-owned
// buffers: tokens the dictionary has never seen are dropped (they cannot
// match any ID-keyed posting or token set), so read traffic never grows the
// table. The value is normalized into norm and the known token IDs appended
// to dst (both reused at their grown capacity), so a warm index probe
// allocates nothing. Returns the two buffers for reuse.
func (d *Dict) AppendLookupTokenIDs(s string, norm []byte, dst []uint32) ([]byte, []uint32) {
	norm = appendNormalized(norm[:0], s)
	dst = dst[:0]
	for start := 0; start < len(norm); {
		end := tokenEnd(norm, start)
		if id, _, ok := d.lookupBytes(norm[start:end]); ok {
			dst = append(dst, id)
		}
		start = end + 1
	}
	return norm, dst
}

// scanTerms normalizes s and records one term per token occurrence, looked
// up — never interned — in Terms.
func (sc *Scratch) scanTerms(s string) {
	sc.norm = appendNormalized(sc.norm[:0], s)
	sc.terms = sc.terms[:0]
	for start := 0; start < len(sc.norm); {
		end := tokenEnd(sc.norm, start)
		id, key, ok := Terms.lookupBytes(sc.norm[start:end])
		sc.terms = append(sc.terms, term{start, end, key, id, ok})
		start = end + 1
	}
}

// internTerms assigns Terms IDs to the scanned tokens the dictionary had not
// seen — the one step that separates a build-side profile from a lookup-only
// query profile.
func (sc *Scratch) internTerms() {
	for i := range sc.terms {
		if t := &sc.terms[i]; !t.known {
			t.id, t.known = Terms.ID(string(sc.norm[t.start:t.end])), true
		}
	}
}

// sortTerms orders the scanned terms by content key, token bytes breaking
// the (in practice unreachable) key collision: an order that is a pure
// function of the token multiset, with equal tokens adjacent.
func (sc *Scratch) sortTerms() {
	n := sc.norm
	slices.SortFunc(sc.terms, func(a, b term) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return bytes.Compare(n[a.start:a.end], n[b.start:b.end])
	})
}

// runEnd returns the end of the run of equal tokens that starts at sorted
// term i.
func (sc *Scratch) runEnd(i int) int {
	t, n := sc.terms[i], sc.norm
	j := i + 1
	for j < len(sc.terms) && sc.terms[j].key == t.key &&
		bytes.Equal(n[sc.terms[j].start:sc.terms[j].end], n[t.start:t.end]) {
		j++
	}
	return j
}

// parseYearInt parses a trimmed, optionally signed decimal integer without
// allocating on the (hot, for non-numeric columns) failure path. Numerals
// longer than 18 digits are rejected rather than range-checked — centuries
// away from any year.
func parseYearInt(s string) (int, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	neg := false
	if s[0] == '+' || s[0] == '-' {
		neg = s[0] == '-'
		s = s[1:]
		if s == "" {
			return 0, false
		}
	}
	if len(s) > 18 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}
