package sim

// Character n-gram and affix measures. The paper's evaluation uses "string
// (trigram) matching" for publication titles and author names (§5.2): the
// Dice coefficient over padded character n-gram sets (ngramProfiled), plus a
// Jaccard variant.

// NGramDice is the Dice coefficient 2·|A∩B| / (|A|+|B|) over character
// n-gram sets. Two empty strings are identical (1); one empty string never
// matches (0).
func NGramDice(a, b string, n int) float64 {
	return compare(ngramProfiled{n: n, dice: true}, a, b)
}

// NGramJaccard is |A∩B| / |A∪B| over character n-gram sets.
func NGramJaccard(a, b string, n int) float64 {
	return compare(ngramProfiled{n: n}, a, b)
}

// Trigram is the Dice coefficient over character trigrams, the measure the
// paper's evaluation scripts call "Trigram".
func Trigram(a, b string) float64 { return compare(trigram, a, b) }

// Bigram is the Dice coefficient over character bigrams.
func Bigram(a, b string) float64 { return compare(bigram, a, b) }

// TrigramJaccard is the Jaccard coefficient over character trigrams, the
// registry's "NGramJaccard" measure.
func TrigramJaccard(a, b string) float64 { return compare(trigramJaccard, a, b) }

// Affix scores the longest common prefix and suffix of the normalized
// strings relative to the shorter length:
// max(lcp, lcs) / min(len(a), len(b)). It captures abbreviation-style
// matches like "SIGMOD Rec." vs "SIGMOD Record".
func Affix(a, b string) float64 { return compare(affix, a, b) }

// Prefix scores only the longest common prefix relative to the shorter
// normalized length.
func Prefix(a, b string) float64 { return compare(prefix, a, b) }

// Suffix scores only the longest common suffix relative to the shorter
// normalized length.
func Suffix(a, b string) float64 { return compare(suffix, a, b) }
