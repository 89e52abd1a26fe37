// Package worldgen makes the benchmark's inputs from a seed: the selective
// resident set and its queries (serve_read), the hold-out split of the paper
// world's Google Scholar set (serve_mixed), the per-client operation
// schedules, and the pre-encoded request bodies. The same seed gives the
// same bytes; the program under test receives only what is generated here,
// never the seed.
package worldgen

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/model"
	"repro/internal/sources"
	"repro/internal/store"
)

// paperSeeds are world seeds for which sources.Generate(PaperConfig)
// terminates. At paper scale the title generator draws (noun, topic)
// combinations without replacement from a pool barely larger than the 2 616
// publications it needs, and for about one seed in twenty (2 and 34 among
// the first forty) the pool runs dry and generation never returns. The
// generator is outside this benchmark, so benchmark seeds index this
// verified list instead of seeding the world directly.
var paperSeeds = [...]int64{
	1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
	18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33,
}

// PaperWorldSeed maps a benchmark seed to the seed of the paper-scale world:
// 0 keeps PaperConfig's own seed (the one the golden results are for), any
// other value picks from the verified list.
func PaperWorldSeed(seed int64) int64 {
	if seed == 0 {
		return sources.PaperConfig().Seed
	}
	i := seed % int64(len(paperSeeds))
	if i < 0 {
		i += int64(len(paperSeeds))
	}
	return paperSeeds[i]
}

// SelectiveLDS is the logical source of the selective resident set; the
// serve workloads address it as "ACM.Publication".
var SelectiveLDS = model.LDS{Source: "ACM", Type: model.Publication}

// wordsPerTitle is the title length of the selective world.
const wordsPerTitle = 8

// vocabulary returns n distinct pronounceable pseudo-words. Random syllable
// strings share few trigrams, so two titles are similar only through the
// words they share — unlike "word0001"/"word0002", whose common stem would
// give every pair of titles a trigram floor.
func vocabulary(rng *rand.Rand, n int) []string {
	const consonants, vowels = "bcdfghjklmnprstvwz", "aeiou"
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		syll := 3 + rng.Intn(2)
		b := make([]byte, 0, 2*syll)
		for s := 0; s < syll; s++ {
			b = append(b, consonants[rng.Intn(len(consonants))], vowels[rng.Intn(len(vowels))])
		}
		if w := string(b); !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// SelectiveSet builds the serve_read resident set: n publications whose
// titles are eight words drawn from a vocabulary of n/5 words, so a word
// occurs in about forty titles and a query blocks to a handful of
// candidates whatever n is.
func SelectiveSet(seed int64, n int) *model.ObjectSet {
	rng := rand.New(rand.NewSource(seed))
	vocabSize := n / 5
	if vocabSize < 20 {
		vocabSize = 20
	}
	vocab := vocabulary(rng, vocabSize)
	set := model.NewObjectSet(SelectiveLDS)
	for i := 0; i < n; i++ {
		title := make([]byte, 0, 80)
		for w := 0; w < wordsPerTitle; w++ {
			if w > 0 {
				title = append(title, ' ')
			}
			title = append(title, vocab[rng.Intn(len(vocab))]...)
		}
		set.AddNew(model.ID(fmt.Sprintf("p%06d", i)), map[string]string{
			"title": string(title),
			"year":  fmt.Sprint(1994 + i%10),
		})
	}
	return set
}

// Query is one resolve request with the resident it must find.
type Query struct {
	Title string
	True  model.ID
}

// SelectiveQueries derives k queries from members of set in a seeded order
// (without repeats while k <= set.Len()): the member's title plus one word
// no resident has, so the true match is known and scores below 1.
func SelectiveQueries(seed int64, set *model.ObjectSet, k int) []Query {
	rng := rand.New(rand.NewSource(seed ^ 0x5e1ec7))
	perm := rng.Perm(set.Len())
	out := make([]Query, k)
	for i := range out {
		in := set.At(perm[i%len(perm)])
		out[i] = Query{
			Title: fmt.Sprintf("%s extra%04d", in.Attr("title"), rng.Intn(10000)),
			True:  in.ID,
		}
	}
	return out
}

// HoldOut splits set by a seeded draw into residents and a held-out share
// (rounded down), both in the set's own order.
func HoldOut(seed int64, set *model.ObjectSet, share float64) (resident, held *model.ObjectSet) {
	rng := rand.New(rand.NewSource(seed ^ 0x401d007))
	n := set.Len()
	out := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(share*float64(n))] {
		out[i] = true
	}
	resident, held = model.NewObjectSet(set.LDS()), model.NewObjectSet(set.LDS())
	for i := 0; i < n; i++ {
		if out[i] {
			held.Add(set.At(i))
		} else {
			resident.Add(set.At(i))
		}
	}
	return resident, held
}

// OpKind is the kind of one scheduled operation.
type OpKind uint8

// The operation kinds of the mixed workload.
const (
	OpResolve OpKind = iota
	OpAdd
	OpRemove
)

// Op is one scheduled operation; Query indexes the resolve-query pool and is
// meaningful for OpResolve only.
type Op struct {
	Kind  OpKind
	Query int32
}

// Schedule is one client's operation sequence: 70 % resolve, 15 % add, 15 %
// remove, drawn independently per client. Equal add and remove shares keep
// the resident set's size stationary; what an add inserts and a remove
// deletes is the client's own state, not part of the schedule.
func Schedule(seed int64, client, n, nQueries int) []Op {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	out := make([]Op, n)
	for i := range out {
		switch r := rng.Intn(100); {
		case r < 70:
			out[i] = Op{Kind: OpResolve, Query: int32(rng.Intn(nQueries))}
		case r < 85:
			out[i] = Op{Kind: OpAdd}
		default:
			out[i] = Op{Kind: OpRemove}
		}
	}
	return out
}

// ResolveBody is the wire body of a resolve request.
func ResolveBody(title string, limit int) []byte {
	return mustJSON(struct {
		Attrs map[string]string `json:"attrs"`
		Limit int               `json:"limit"`
	}{map[string]string{"title": title}, limit})
}

// AddBody is the wire body of an add-instance request.
func AddBody(id string, attrs map[string]string) []byte {
	return mustJSON(struct {
		ID    string            `json:"id"`
		Attrs map[string]string `json:"attrs"`
	}{id, attrs})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return b
}

// WriteSetCSV writes set to path in the object-set CSV format moma-serve
// loads with -data.
func WriteSetCSV(path string, set *model.ObjectSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = store.WriteObjectSetCSV(w, set)
	if err == nil {
		err = w.Flush()
	}
	if err = errors.Join(err, f.Close()); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
