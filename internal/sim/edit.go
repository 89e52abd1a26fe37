package sim

// Edit-distance based measures: Levenshtein (normalized), Jaro and
// Jaro-Winkler, plus the Monge-Elkan token-level combinator.

// editDistanceRunes is the Levenshtein distance between two rune
// sequences, using the standard two-row dynamic program.
func editDistanceRunes(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			ins := cur[j-1] + 1
			del := prev[j] + 1
			sub := prev[j-1] + cost
			m := ins
			if del < m {
				m = del
			}
			if sub < m {
				m = sub
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// Levenshtein is the normalized edit similarity
// 1 - dist(a', b') / max(len(a'), len(b')) over normalized strings.
func Levenshtein(a, b string) float64 { return compare(levenshtein, a, b) }

// Jaro computes the Jaro similarity over normalized strings.
func Jaro(a, b string) float64 { return compare(jaro, a, b) }

func jaroRunes(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
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
func JaroWinkler(a, b string) float64 { return compare(jaroWinkler, a, b) }

// jaroWinklerRunes is JaroWinkler over pre-normalized rune slices.
func jaroWinklerRunes(ra, rb []rune) float64 {
	j := jaroRunes(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return clamp01(j + float64(prefix)*0.1*(1-j))
}

// MongeElkan computes the token-level Monge-Elkan similarity: for each token
// of a, the best inner similarity against any token of b, averaged. It is
// asymmetric; symMongeElkanTokens averages both directions.
func MongeElkan(a, b string, inner Func) float64 {
	return mongeElkanTokens(Tokens(a), Tokens(b), inner)
}

// mongeElkanTokens is MongeElkan over pre-tokenized inputs.
func mongeElkanTokens(ta, tb []string, inner Func) float64 {
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	var sum float64
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if s := inner(x, y); s > best {
				best = s
			}
		}
		sum += best
	}
	return clamp01(sum / float64(len(ta)))
}

// symMongeElkanTokens is the symmetric mean of mongeElkanTokens in both
// directions.
func symMongeElkanTokens(ta, tb []string, inner Func) float64 {
	return clamp01((mongeElkanTokens(ta, tb, inner) + mongeElkanTokens(tb, ta, inner)) / 2)
}

// MongeElkanJaroWinkler is the symmetric Monge-Elkan with Jaro-Winkler as
// the inner measure, a strong default for multi-token names.
func MongeElkanJaroWinkler(a, b string) float64 { return compare(mongeElkan, a, b) }
