package dictgrowth

import (
	"go/token"
	"go/types"
	"strings"
	"testing"
)

func newFunc(name string) *types.Func {
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	return types.NewFunc(token.NoPos, nil, name, sig)
}

func newNode(fn *types.Func, callees ...*types.Func) *node {
	return &node{fn: fn, calls: callees}
}

// TestPropagateChain pins the core fixpoint: marks flow from a seeded leaf
// backwards through callers, recording the chain, and stop at skipped nodes.
func TestPropagateChain(t *testing.T) {
	leaf, mid, root, cleared := newFunc("leaf"), newFunc("mid"), newFunc("root"), newFunc("cleared")
	nodes := []*node{
		newNode(root, mid),
		newNode(mid, leaf),
		newNode(cleared, leaf),
	}
	m := marks{leaf: "leaf [seed]"}
	var marked []string
	propagate(nodes, m, nil,
		func(n *node) bool { return n.fn == cleared },
		func(n *node, chain string) { marked = append(marked, n.fn.Name()) })

	if got, want := m[mid], "mid → leaf [seed]"; got != want {
		t.Errorf("mid chain = %q, want %q", got, want)
	}
	if got, want := m[root], "root → mid → leaf [seed]"; got != want {
		t.Errorf("root chain = %q, want %q", got, want)
	}
	if _, ok := m[cleared]; ok {
		t.Errorf("cleared node was marked: %q", m[cleared])
	}
	if got := strings.Join(marked, ","); got != "mid,root" && got != "root,mid" {
		// Two fixpoint iterations: mid first (direct edge), root second.
		t.Errorf("onMark order = %q", got)
	}
}

// TestPropagateMutualRecursion: a cycle with no path to a seed never marks;
// a cycle with one does, and the fixpoint terminates.
func TestPropagateMutualRecursion(t *testing.T) {
	a, b := newFunc("a"), newFunc("b")
	m := marks{}
	propagate([]*node{newNode(a, b), newNode(b, a)}, m, nil, nil, nil)
	if len(m) != 0 {
		t.Errorf("unreachable cycle marked: %v", m)
	}

	seed := newFunc("seed")
	m = marks{seed: "seed [leaf]"}
	propagate([]*node{newNode(a, b), newNode(b, a), newNode(b, seed)}, m, nil, nil, nil)
	// The later node entry for b (with the seed edge) wins; both a and b mark.
	if m[a] == "" || m[b] == "" {
		t.Errorf("cycle with seeded escape did not fully mark: %v", m)
	}
}

// TestPropagateLookup: cross-package marks arrive through the lookup
// callback (the analyzer's fact import).
func TestPropagateLookup(t *testing.T) {
	ext, caller := newFunc("ext"), newFunc("caller")
	m := marks{}
	propagate([]*node{newNode(caller, ext)}, m,
		func(fn *types.Func) (string, bool) {
			if fn == ext {
				return "ext [imported fact]", true
			}
			return "", false
		}, nil, nil)
	if got, want := m[caller], "caller → ext [imported fact]"; got != want {
		t.Errorf("caller chain = %q, want %q", got, want)
	}
}
