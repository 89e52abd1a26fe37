package sim

// Character-level measures over the runes of a normalized value:
// Levenshtein (normalized, by a bit-vector kernel), Jaro and Jaro-Winkler,
// and the token-sequence measures Monge-Elkan (here) and PersonName
// (token.go), which apply Jaro-Winkler to the space-separated tokens of the
// same runes in place. None of them allocates once its pooled buffers have
// grown to the longest value scored.

import (
	"slices"
	"sync"
)

// editMasks is the pooled working memory of the rune kernels. For
// editDistance with a pattern of w words it holds the pattern's equality
// masks, w words per symbol — a direct table for the ASCII symbols, a short
// list for the others — and the column of vertical deltas; between calls
// ascii is all zero, so a call sets and clears only the rows of its own
// pattern. For jaroRunes it holds the match flags of pairs too long for the
// stack.
type editMasks struct {
	ascii  []uint64 // 128 rows of w words
	other  []rune   // the distinct non-ASCII symbols of the pattern
	eq     []uint64 // their rows, aligned with other
	zero   []uint64 // the row of a symbol absent from the pattern
	vp, vn []uint64 // vertical deltas +1 and -1, one word per block
	flags  []bool   // jaroRunes' match flags
}

var editPool = sync.Pool{New: func() any { return new(editMasks) }}

// load builds the equality masks of pattern at w words per symbol.
func (em *editMasks) load(pattern []rune, w int) {
	if len(em.ascii) < 128*w {
		em.ascii = make([]uint64, 128*w)
		em.zero = make([]uint64, w)
		em.vp, em.vn = make([]uint64, w), make([]uint64, w)
	}
	em.other, em.eq = em.other[:0], em.eq[:0]
	for i, c := range pattern {
		bit := uint64(1) << (i % 64)
		if uint32(c) < 128 {
			em.ascii[int(c)*w+i/64] |= bit
			continue
		}
		k := slices.Index(em.other, c)
		if k < 0 {
			k = len(em.other)
			em.other = append(em.other, c)
			em.eq = append(em.eq, em.zero[:w]...)
		}
		em.eq[k*w+i/64] |= bit
	}
}

// row returns the w-word equality mask of symbol c.
func (em *editMasks) row(c rune, w int) []uint64 {
	if uint32(c) < 128 {
		return em.ascii[int(c)*w : int(c)*w+w]
	}
	if k := slices.Index(em.other, c); k >= 0 {
		return em.eq[k*w : k*w+w]
	}
	return em.zero[:w]
}

// unload clears the ASCII rows load set.
func (em *editMasks) unload(pattern []rune, w int) {
	for _, c := range pattern {
		if uint32(c) < 128 {
			clear(em.ascii[int(c)*w : int(c)*w+w])
		}
	}
}

// editDistance is the Levenshtein distance of two rune sequences by the
// bit-vector algorithm of Myers (JACM 1999) in its block form, with the
// global-distance boundary of Hyyrö (2003). The shorter sequence is the
// pattern, m runes in w = ⌈m/64⌉ words; every rune of the text advances the
// column of vertical deltas block by block, each block passing the
// horizontal delta of its top row (+1, 0 or -1) to the next, and the
// distance follows the horizontal delta of the pattern's last row: O(w·n)
// word operations and no table of the dynamic program.
func editDistance(ra, rb []rune) int {
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	m := len(ra)
	if m == 0 {
		return len(rb)
	}
	w := (m + 63) / 64
	em := editPool.Get().(*editMasks)
	em.load(ra, w)
	vp, vn := em.vp[:w], em.vn[:w]
	for k := range vp {
		vp[k], vn[k] = ^uint64(0), 0
	}
	last := uint64(1) << ((m - 1) % 64)
	dist := m
	for _, c := range rb {
		eq := em.row(c, w)[:len(vp)]
		// Row 0 of the matrix counts up by one per text rune.
		hp, hn := uint64(1), uint64(0)
		var ph, mh uint64
		for k := range vp {
			pv, mv, e := vp[k], vn[k], eq[k]
			xv := e | mv
			e |= hn
			xh := ((e & pv) + pv) ^ pv | e
			ph = mv | ^(xh | pv)
			mh = pv & xh
			phs, mhs := ph<<1|hp, mh<<1|hn
			vp[k] = mhs | ^(xv | phs)
			vn[k] = phs & xv
			hp, hn = ph>>63, mh>>63
		}
		// ph and mh are the last block's: its row m-1 holds the distance.
		if ph&last != 0 {
			dist++
		} else if mh&last != 0 {
			dist--
		}
	}
	em.unload(ra, w)
	editPool.Put(em)
	return dist
}

// Levenshtein is the normalized edit similarity
// 1 - dist(a', b') / max(len(a'), len(b')) over normalized strings.
func Levenshtein(a, b string) float64 { return compare(levenshteinProfiled{}, a, b) }

// Jaro computes the Jaro similarity over normalized strings.
func Jaro(a, b string) float64 { return compare(jaroProfiled{}, a, b) }

// jaroStack is the combined length of two values up to which jaroRunes
// keeps its match flags on the stack; longer pairs take them from editPool.
const jaroStack = 128

func jaroRunes(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	if la+lb <= jaroStack {
		var flags [jaroStack]bool
		return jaroFlagged(ra, rb, flags[:la], flags[la:la+lb])
	}
	em := editPool.Get().(*editMasks)
	em.flags = grow(em.flags, la+lb)[:la+lb]
	clear(em.flags)
	s := jaroFlagged(ra, rb, em.flags[:la], em.flags[la:])
	editPool.Put(em)
	return s
}

// jaroFlagged is the Jaro similarity of two non-empty rune sequences, given
// one all-false match flag per rune of each.
func jaroFlagged(ra, rb []rune, matchA, matchB []bool) float64 {
	la, lb := len(ra), len(rb)
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(i-window, 0)
		hi := min(i+window+1, lb)
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions between the matched subsequences.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return clamp01((m/float64(la) + m/float64(lb) + (m-t)/m) / 3)
}

// JaroWinkler boosts Jaro similarity for strings sharing a common prefix of
// up to 4 runes, with the standard scaling factor p = 0.1.
func JaroWinkler(a, b string) float64 { return compare(jaroProfiled{winkler: true}, a, b) }

// jaroWinklerRunes is JaroWinkler over pre-normalized rune slices.
func jaroWinklerRunes(ra, rb []rune) float64 {
	j := jaroRunes(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return clamp01(j + float64(prefix)*0.1*(1-j))
}

// nextToken cuts the first token off the runes of a normalized value, whose
// tokens are separated by single spaces: the runes of Tokens(s) in order
// are exactly the tokens nextToken walks off a slot's runes.
func nextToken(rs []rune) (tok, rest []rune) {
	if i := slices.Index(rs, ' '); i >= 0 {
		return rs[:i], rs[i+1:]
	}
	return rs, nil
}

// MongeElkanJaroWinkler is the symmetric Monge-Elkan similarity with
// Jaro-Winkler as the inner measure, a strong default for multi-token
// names: the mean of both directions of mongeElkanRunes.
func MongeElkanJaroWinkler(a, b string) float64 { return compare(mongeElkanProfiled{}, a, b) }

// mongeElkanRunes is the one-directional Monge-Elkan similarity of two
// normalized values: for each token of a, its best Jaro-Winkler similarity
// against any token of b, averaged over the tokens of a.
func mongeElkanRunes(a, b []rune) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for rest := a; len(rest) > 0; n++ {
		var x []rune
		x, rest = nextToken(rest)
		best := 0.0
		for restB := b; len(restB) > 0; {
			var y []rune
			y, restB = nextToken(restB)
			if s := jaroWinklerRunes(x, y); s > best {
				best = s
			}
		}
		sum += best
	}
	return clamp01(sum / float64(n))
}
