package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// Soundness of the signature bound setSim rejects on: for every pair of sets,
// |A| minus the signature bits of A that B lacks is at least |A∩B|, on both
// sides, and a floor-bounded Compare therefore stays exact at or above its
// floor. The sets here are built by hand, with signatures as ProfileInto
// would fill them; the suites that build through ProfileInto
// (FuzzCompareFloorExact, the matcher and resolver oracles) cover the rest.

// sigBit is the signature bit an element selects.
func sigBit(x uint64) int {
	sig := signatureOf([]uint64{x})
	for w, word := range sig {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	panic("an element set no signature bit")
}

// checkBound is the inequality itself, in both directions.
func checkBound[T uint32 | uint64](t *testing.T, name string, a, b []T, sa, sb *signature) {
	t.Helper()
	inter := overlap(a, b)
	if got := len(a) - sa.lacking(sb); got < inter {
		t.Errorf("%s: |A|-lacking = %d < |A∩B| = %d (A %v, B %v)", name, got, inter, a, b)
	}
	if got := len(b) - sb.lacking(sa); got < inter {
		t.Errorf("%s: |B|-lacking = %d < |A∩B| = %d (A %v, B %v)", name, got, inter, a, b)
	}
}

func TestSignatureBoundsOverlap(t *testing.T) {
	// All elements on one signature bit, and for every bit two elements that
	// select it: "firsts" and "seconds" are disjoint with identical, full
	// signatures.
	var oneBit, firsts, seconds []uint64
	perBit := make([]int, 1<<sigLog)
	for x := uint64(1); len(firsts) < 1<<sigLog || len(seconds) < 1<<sigLog || len(oneBit) < 60; x++ {
		bit := sigBit(x)
		switch perBit[bit]++; {
		case perBit[bit] == 1:
			firsts = append(firsts, x)
		case perBit[bit] == 2:
			seconds = append(seconds, x)
		case bit == 0 && len(oneBit) < 60:
			oneBit = append(oneBit, x)
		}
	}
	if sa, sb := signatureOf(firsts), signatureOf(seconds); sa != sb || sa.lacking(&signature{}) != 1<<sigLog || overlap(firsts, seconds) != 0 {
		t.Fatal("fixture broken: firsts and seconds must be disjoint with identical full signatures")
	}
	if sig := signatureOf(oneBit); sig.lacking(&signature{}) != 1 {
		t.Fatal("fixture broken: oneBit must set a single signature bit")
	}
	sets := [][]uint64{
		nil, {firsts[0]}, {seconds[0]}, firsts, seconds, firsts[:40], seconds[:40], firsts[20:60],
		oneBit, oneBit[:30], oneBit[15:45], oneBit[30:], append(append([]uint64(nil), oneBit[:10]...), firsts[1:30]...),
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		n, universe := rng.Intn(70), uint64(4+rng.Intn(150))
		if i%4 == 0 {
			universe = math.MaxUint32 // sparse: overlaps only by chance, as unrelated values' grams
		}
		var s []uint64
		for len(s) < n {
			s = append(s, rng.Uint64()%universe)
		}
		sets = append(sets, s)
	}
	for i := range sets {
		sets[i] = uniqueSorted(append([]uint64(nil), sets[i]...))
	}
	const threshold = 0.75
	bounded := []float64{0, math.Nextafter(threshold, 0), threshold, math.Nextafter(threshold, 1), 1}
	tighter := 0 // pairs the signature bounds below what the sizes alone do
	for _, a := range sets {
		for _, b := range sets {
			sa, sb := signatureOf(a), signatureOf(b)
			checkBound(t, "grams", a, b, &sa, &sb)
			if len(a)-sa.lacking(&sb) < min(len(a), len(b)) {
				tighter++
			}
			for name, ps := range map[string]ProfiledSim{"dice": ProfiledOf(Trigram), "jaccard": ProfiledOf(TrigramJaccard)} {
				checkFloor(t, "ngram-"+name, ps, gramProfile(a, sa), gramProfile(b, sb), bounded...)
			}
			ta, tb := make([]uint32, len(a)), make([]uint32, len(b))
			for i, v := range a {
				ta[i] = uint32(v)
			}
			for i, v := range b {
				tb[i] = uint32(v)
			}
			sta, stb := signatureOf(ta), signatureOf(tb)
			checkBound(t, "tokens", ta, tb, &sta, &stb)
			for _, extra := range []int{0, 3} { // unknown query tokens: in the cardinality, not in the signature
				for name, ps := range map[string]ProfiledSim{"dice": tokenProfiled{dice: true}, "jaccard": tokenProfiled{}} {
					checkFloor(t, "token-"+name, ps,
						tokenProfile(ta, extra, sta), tokenProfile(tb, 0, stb), bounded...)
				}
			}
		}
	}
	if tighter == 0 {
		t.Fatal("the signature bound never beat the size bound: vacuous on this fixture")
	}
}

// setMeasures are the measures whose profiles carry a signature.
var setMeasures = map[string]ProfiledSim{
	"Trigram": ProfiledOf(Trigram), "Bigram": ProfiledOf(Bigram), "NGramJaccard": ProfiledOf(TrigramJaccard),
	"TokenDice": tokenProfiled{dice: true}, "TokenJaccard": tokenProfiled{},
}

// checkSignature checks that p's signature is that of the set p holds now —
// a bit left over from the value p profiled before would make the bound
// reject pairs it must not.
func checkSignature(t *testing.T, name string, p *Profile) {
	t.Helper()
	var want signature
	if p.col.lay == gramSlab {
		want = signatureOf(p.Ref().grams())
	} else {
		want = signatureOf(p.Ref().toks())
	}
	if sig := p.Key().sig; sig != want {
		t.Errorf("%s(%s): signature %x, want %x of the set it holds", name, show(p), sig, want)
	}
}

// TestSignatureFollowsReusedProfile rebuilds one Profile across values of
// very different sets — long, short, empty, all-unknown — through both the
// interning and the lookup-only constructor.
func TestSignatureFollowsReusedProfile(t *testing.T) {
	values := append(scratchValues(), profileEdgeCases...)
	values = append(values, "zzsig1 zzsig2 zzsig3 never interned", "")
	for name, ps := range setMeasures {
		var p, q Profile
		var sc Scratch
		for _, v := range values {
			QueryInto(ps, v, &q, &sc) // first: a later ProfileInto would intern v's tokens
			checkSignature(t, name+"/query", &q)
			lay, _ := ps.layout()
			p.col.reset(lay)
			ps.ProfileInto(v, &p.col, &sc)
			checkSignature(t, name, &p)
			if fresh := NewProfile(ps, v); fresh.Key().sig != p.Key().sig {
				t.Errorf("%s(%q): reused profile's signature %x, fresh profile's %x", name, v, p.Key().sig, fresh.Key().sig)
			}
		}
	}
}

// FuzzSignatureBound checks the inequality and the floor contract on the
// profiles of arbitrary strings, the query side rebuilt in a Profile that
// held another value before (so a stale bit would show) and built lookup-only
// (so unknown tokens count without entering the signature).
func FuzzSignatureBound(f *testing.F) {
	seeds := append(scratchValues(), profileEdgeCases...)
	for i, a := range seeds {
		f.Add(a, seeds[(i*7+3)%len(seeds)], 0.75)
		f.Add(a, a+" zzsigfuzz unknown", 0.5)
	}
	f.Fuzz(func(t *testing.T, a, b string, floor float64) {
		var q Profile
		var sc Scratch
		for name, ps := range setMeasures {
			pb := NewProfile(ps, b)
			QueryInto(ps, b+" "+a+" stale", &q, &sc)
			QueryInto(ps, a, &q, &sc)
			checkSignature(t, name, &q)
			qk, bk := q.Key(), pb.Key()
			if q.col.lay == gramSlab { // the measure's set is the one the signatures are of
				checkBound(t, name, q.Ref().grams(), pb.Ref().grams(), &qk.sig, &bk.sig)
			} else {
				checkBound(t, name, q.Ref().toks(), pb.Ref().toks(), &qk.sig, &bk.sig)
			}
			checkFloor(t, name, ps, &q, pb, floor, 0)
		}
	})
}
