package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// columnValues are n values for a bulk build: titles over a small
// vocabulary, each with a token of its own, among empty values, years,
// non-ASCII text, values too short for a trigram and values of one gram
// repeated (an oversized hash bucket). The last value, in the last chunk,
// has the most tokens and grams.
func columnValues(n int, tag string) []string {
	words := strings.Fields("mapping based object matching data integration schema view selection problem ångström 界")
	rng := rand.New(rand.NewSource(5))
	out := make([]string, n)
	for i := range out {
		switch i % 9 {
		case 0:
			out[i] = ""
		case 1:
			out[i] = fmt.Sprint(1990 + i%20)
		case 2:
			out[i] = "ab"
		case 3:
			out[i] = strings.Repeat("la", 20+i%40)
		default:
			var b strings.Builder
			for k := range 3 + rng.Intn(8) {
				if k > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(words[rng.Intn(len(words))])
			}
			fmt.Fprintf(&b, " %s%d", tag, i)
			out[i] = b.String()
		}
	}
	out[n-1] = fmt.Sprint(rng.Perm(300))
	return out
}

// TestBuildProfileColumnPartitionInvariant: the bulk builder's column is
// the serial build's — each slot what Append makes of its value, the keys
// and MaxCard alike, the slab closed up without gaps — at GOMAXPROCS 8, 3, 2
// and 1, where 8·2048 values give par.Split eight chunks. A measure that
// interns (a QueryProfiler) numbers the values' new terms in ordinal order
// at every width.
func TestBuildProfileColumnPartitionInvariant(t *testing.T) {
	const n = 8 * 2048
	measures := map[string]ProfiledSim{
		"Trigram":     ProfiledOf(Trigram),
		"TokenDice":   ProfiledOf(TokenDice),
		"Levenshtein": ProfiledOf(Levenshtein),
		"Soundex":     ProfiledOf(SoundexSim),
	}
	for name, ps := range measures {
		tag := "pcol" + strings.ToLower(name)
		values := columnValues(n, tag)
		value := func(i int) string { return values[i] }
		var want ProfileColumn
		for _, w := range []int{8, 3, 2, 1} {
			var got ProfileColumn
			atGOMAXPROCS(w, func() { got = BuildProfileColumn(ps, n, value) })
			if w == 8 {
				if _, interns := ps.(QueryProfiler); interns {
					checkInternOrder(t, name, values, tag)
				}
				want = NewProfileColumn(ps, n)
				for _, v := range values {
					want.Append(v)
				}
			}
			if got.Len() != n || slabLen(&got) != slabLen(&want) {
				t.Fatalf("%s at %d workers: %d slots over %d slab elements, serially %d over %d", name, w, got.Len(), slabLen(&got), n, slabLen(&want))
			}
			for i := range n {
				if g, s := viewSlot(ps, &got, i), viewSlot(ps, &want, i); !sameProfile(g, s) {
					t.Fatalf("%s at %d workers: slot %d of %q is %+v, serially %+v", name, w, i, values[i], g, s)
				}
			}
			if !slices.Equal(got.Keys, want.Keys) || got.MaxCard() != want.MaxCard() {
				t.Fatalf("%s at %d workers: keys or MaxCard %d differ from the serial build's (MaxCard %d)", name, w, got.MaxCard(), want.MaxCard())
			}
		}
	}
}

// checkInternOrder checks that the values' own tokens, interned by the
// first build, got term IDs in ordinal order: a dictionary shard numbers
// its terms by first sight.
func checkInternOrder(t *testing.T, name string, values []string, tag string) {
	t.Helper()
	var last [dictShards]uint32
	for i, v := range values {
		if !strings.Contains(v, tag) {
			continue
		}
		id, ok := Terms.Lookup(fmt.Sprintf("%s%d", tag, i))
		if sh := id & dictShardMask; !ok || id < last[sh] {
			t.Fatalf("%s: the token of value %d has term %d (known %t) after %d", name, i, id, ok, last[sh])
		}
		last[id&dictShardMask] = id
	}
}

// atGOMAXPROCS runs f at GOMAXPROCS n, the worker count of the bulk build.
func atGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// FuzzSortHashesMatchesSort: the n-gram profile's bucket sort leaves a set
// of hashes in slices.Sort's order, and so, after Compact, as the distinct
// sorted set slices.Sort and Compact give. The input is read as 64-bit
// hashes shifted right by skew, which crowds them into the low buckets; a
// second, longer sort through the same Scratch reuses its buffers.
func FuzzSortHashesMatchesSort(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 15, 16, 17, 70, 300} {
		b := make([]byte, 8*n)
		rng.Read(b)
		f.Add(b, uint8(0))
	}
	f.Add(make([]byte, 8*40), uint8(0)) // one hash forty times: an oversized bucket
	b := make([]byte, 8*70)
	rng.Read(b)
	f.Add(b, uint8(60))
	f.Fuzz(func(t *testing.T, data []byte, skew uint8) {
		hs := make([]uint64, len(data)/8)
		for i := range hs {
			hs[i] = binary.LittleEndian.Uint64(data[8*i:]) >> (skew % 64)
		}
		var sc Scratch
		for _, set := range [][]uint64{hs[:len(hs)/2], hs} {
			sc.hashes = append(sc.hashes[:0], set...)
			got := slices.Compact(sc.sortHashes(make([]uint64, len(set))))
			want := slices.Compact(slices.Sorted(slices.Values(set)))
			if !slices.Equal(got, want) {
				t.Fatalf("sortHashes(%x) then Compact = %x, slices.Sort then Compact %x", set, got, want)
			}
		}
	})
}

// tokenColumnMatchesTokenIDs checks TokenColumn at GOMAXPROCS w against
// TokenIDs value by value, each on a fresh dictionary: equal rows, every
// row capped at its end, and the two dictionaries numbering the same terms
// alike.
func tokenColumnMatchesTokenIDs(t *testing.T, values []string, w int) {
	t.Helper()
	ref, d := NewDict(), NewDict()
	want := make([][]uint32, len(values))
	for i, v := range values {
		want[i] = ref.TokenIDs(v)
	}
	var got [][]uint32
	atGOMAXPROCS(w, func() { got = d.TokenColumn(len(values), func(i int) string { return values[i] }) })
	if len(got) != len(values) {
		t.Fatalf("at %d workers: %d rows for %d values", w, len(got), len(values))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("at %d workers: row %d of %q is %v, TokenIDs gives %v", w, i, values[i], got[i], want[i])
		}
		if cap(got[i]) != len(got[i]) {
			t.Fatalf("at %d workers: row %d has capacity %d past its %d tokens", w, i, cap(got[i]), len(got[i]))
		}
		for _, id := range want[i] {
			if d.Str(id) != ref.Str(id) {
				t.Fatalf("at %d workers: term %d is %q, TokenIDs assigned it to %q", w, id, d.Str(id), ref.Str(id))
			}
		}
	}
	if d.Len() != ref.Len() {
		t.Fatalf("at %d workers: %d terms, TokenIDs interns %d", w, d.Len(), ref.Len())
	}
}

// TestTokenColumnPartitionInvariant: the bulk token column is the serial
// TokenIDs loop's, IDs included, at GOMAXPROCS 8, 3, 2 and 1, where 8·2048
// values give par.Split eight chunks and each chunk first meets tokens of
// its own.
func TestTokenColumnPartitionInvariant(t *testing.T) {
	values := columnValues(8*2048, "tcol")
	for i := 4; i < len(values); i += 9 {
		values[i] += " -- " + values[i] // every token of the value twice
	}
	for _, w := range []int{8, 3, 2, 1} {
		tokenColumnMatchesTokenIDs(t, values, w)
	}
	if got := NewDict().TokenColumn(0, nil); len(got) != 0 {
		t.Fatalf("an empty column has %d rows", len(got))
	}
}

// FuzzTokenColumnMatchesTokenIDs: TokenColumn against TokenIDs per value on
// fuzzed values (one per line of text; blanks, multi-byte text, separator
// runs and repeated tokens among the seeds), cycled up to rows values so
// that up to three chunks build at once. Every third value gains a token
// first seen at its ordinal, so later chunks intern terms the earlier ones
// never met.
func FuzzTokenColumnMatchesTokenIDs(f *testing.F) {
	f.Add("mapping based object matching\n\n   \nschema--view__selection//problem\nångström 界 ÅNGSTRÖM\nview view\tview", uint16(4400))
	f.Add("a-_/ -b", uint16(4200))
	f.Add("", uint16(1))
	f.Add("x\ny y\n\n", uint16(40))
	f.Fuzz(func(t *testing.T, text string, rows uint16) {
		lines := strings.Split(text, "\n")
		values := make([]string, int(rows)%4500)
		for i := range values {
			values[i] = lines[i%len(lines)]
			if i%3 == 0 {
				values[i] += fmt.Sprintf(" w%d", i/5)
			}
		}
		for _, w := range []int{1, 3} {
			tokenColumnMatchesTokenIDs(t, values, w)
		}
	})
}
