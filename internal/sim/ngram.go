package sim

// Character n-gram and affix measures. The paper's evaluation uses "string
// (trigram) matching" for publication titles and author names (§5.2): the
// Dice coefficient over padded character n-gram sets (ngramProfiled), plus a
// Jaccard variant.

// Trigram is the Dice coefficient over character trigrams, the measure the
// paper's evaluation scripts call "Trigram".
func Trigram(a, b string) float64 { return compare(ngramProfiled{n: 3, dice: true}, a, b) }

// Bigram is the Dice coefficient over character bigrams.
func Bigram(a, b string) float64 { return compare(ngramProfiled{n: 2, dice: true}, a, b) }

// TrigramJaccard is the Jaccard coefficient over character trigrams, the
// measure named "NGramJaccard".
func TrigramJaccard(a, b string) float64 { return compare(ngramProfiled{n: 3}, a, b) }

// Affix scores the longest common prefix and suffix of the normalized
// strings relative to the shorter length:
// max(lcp, lcs) / min(len(a), len(b)). It captures abbreviation-style
// matches like "SIGMOD Rec." vs "SIGMOD Record".
func Affix(a, b string) float64 { return compare(affixProfiled{mode: affixBoth}, a, b) }

// Prefix scores only the longest common prefix relative to the shorter
// normalized length.
func Prefix(a, b string) float64 { return compare(affixProfiled{mode: affixPrefix}, a, b) }

// Suffix scores only the longest common suffix relative to the shorter
// normalized length.
func Suffix(a, b string) float64 { return compare(affixProfiled{mode: affixSuffix}, a, b) }
