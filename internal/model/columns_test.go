package model

import (
	"runtime"
	"sync"
	"testing"
	"weak"
)

type testKey struct{ name string }

// countedKey counts its invalidations in a package variable, the way the
// block and match keys count into their metric families.
type countedKey struct{ name string }

var countedInvalidations int

func (countedKey) Invalidated() { countedInvalidations++ }

// LookupColumn is Column without the build: ok is false when the store has
// no column under key for the set's current version.
func LookupColumn[T any](s *ObjectSet, key any) (col T, ok bool) {
	v, ok := s.cols.get(key, s.version)
	col, _ = v.(T)
	return col, ok
}

func TestColumnBuildsOncePerVersion(t *testing.T) {
	set := NewObjectSet(LDS{Source: "S", Type: Publication})
	set.AddNew("x", nil)
	builds := 0
	build := func() []int { builds++; return []int{set.Len()} }

	if _, ok := LookupColumn[[]int](set, testKey{"len"}); ok {
		t.Fatal("lookup found a column nobody built")
	}
	c1, hit1 := Column(set, testKey{"len"}, build)
	c2, hit2 := Column(set, testKey{"len"}, build)
	if hit1 || !hit2 || builds != 1 || &c1[0] != &c2[0] {
		t.Fatalf("hit1=%v hit2=%v builds=%d: the second fetch must serve the first column", hit1, hit2, builds)
	}
	if c, ok := LookupColumn[[]int](set, testKey{"len"}); !ok || &c[0] != &c1[0] {
		t.Fatal("lookup must see the kept column")
	}
	if _, hit := Column(set, testKey{"other"}, build); hit || builds != 2 {
		t.Fatal("a different key is a different column")
	}

	// Add and SetAttr each drop everything, once, calling Invalidated on the
	// keys that have it.
	Column(set, countedKey{"a"}, build)
	Column(set, countedKey{"b"}, build)
	countedInvalidations = 0
	set.AddNew("y", nil)
	if _, ok := LookupColumn[[]int](set, testKey{"len"}); ok {
		t.Fatal("Add must drop the set's columns")
	}
	if countedInvalidations != 2 || len(set.cols.vals) != 0 {
		t.Fatalf("Add invalidated %d counted keys and left %d columns", countedInvalidations, len(set.cols.vals))
	}
	c3, hit := Column(set, testKey{"len"}, build)
	if hit || c3[0] != 2 {
		t.Fatalf("column after Add = %v (hit=%v), want a rebuild over 2 instances", c3, hit)
	}
	set.SetAttr(0, "k", "v")
	if _, hit := Column(set, testKey{"len"}, build); hit {
		t.Fatal("SetAttr must drop the set's columns")
	}
	if countedInvalidations != 2 {
		t.Fatal("keys dropped earlier must not be invalidated again")
	}
}

// TestColumnConcurrent has many goroutines fetch a mix of keys from one set
// at once. Builds are held at a barrier until every goroutine is inside one,
// so each key is provably built by all its requesters concurrently; the
// store must still hand every requester of a key the same column — the first
// one stored — and serve that column from then on.
func TestColumnConcurrent(t *testing.T) {
	const keys, perKey = 4, 8
	set := NewObjectSet(LDS{Source: "S", Type: Publication})
	set.AddNew("x", nil)
	for round := 0; round < 3; round++ {
		var (
			wg      sync.WaitGroup
			barrier sync.WaitGroup
			got     [keys][perKey]*int
		)
		barrier.Add(keys * perKey)
		for k := 0; k < keys; k++ {
			for g := 0; g < perKey; g++ {
				wg.Add(1)
				go func(k, g int) {
					defer wg.Done()
					got[k][g], _ = Column(set, k, func() *int {
						barrier.Done()
						barrier.Wait()
						return new(int)
					})
					if c, ok := LookupColumn[*int](set, k); !ok || c != got[k][g] {
						t.Errorf("key %d: lookup after fetch = %p, fetch returned %p", k, c, got[k][g])
					}
				}(k, g)
			}
		}
		wg.Wait()
		for k := 0; k < keys; k++ {
			kept, hit := Column(set, k, func() *int { return new(int) })
			if !hit {
				t.Fatalf("round %d key %d: nothing was kept", round, k)
			}
			for g := 0; g < perKey; g++ {
				if got[k][g] != kept {
					t.Fatalf("round %d key %d: requester %d got %p, the kept column is %p", round, k, g, got[k][g], kept)
				}
			}
			for j := 0; j < k; j++ {
				if got[j][0] == kept {
					t.Fatalf("round %d: keys %d and %d share a column", round, j, k)
				}
			}
		}
		if len(set.cols.vals) != keys {
			t.Fatalf("round %d: store holds %d columns, want %d", round, len(set.cols.vals), keys)
		}
		set.AddNew("x", nil) // next round: a new version, new canonical columns
	}
}

// TestColumnsDieWithTheirSet pins "keeping columns never extends a set's
// lifetime" and its converse: once the set is unreachable, so are its
// columns. Only the test holds weak pointers; the store has none.
func TestColumnsDieWithTheirSet(t *testing.T) {
	type big struct{ pad [1 << 16]byte }
	make1 := func() (weak.Pointer[ObjectSet], weak.Pointer[big]) {
		set := NewObjectSet(LDS{Source: "S", Type: Publication})
		set.AddNew("x", nil)
		col, _ := Column(set, testKey{"big"}, func() *big { return new(big) })
		return weak.Make(set), weak.Make(col)
	}
	ws, wc := make1()
	for i := 0; i < 5 && (ws.Value() != nil || wc.Value() != nil); i++ {
		runtime.GC()
	}
	if ws.Value() != nil {
		t.Error("an unreachable set was kept alive")
	}
	if wc.Value() != nil {
		t.Error("a column outlived its set")
	}
}
