package cluster

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mapping"
	"repro/internal/model"
)

var gsPub = model.LDS{Source: "GS", Type: model.Publication}

// TestFromMappingComponentsProperty holds FromMapping, the union-find E1
// runs, to a naive breadth-first search: over random self-mappings and
// thresholds, the clusters are exactly the connected components of the
// pairs at or above minSim, members sorted, singletons dropped, ordered by
// smallest member. TransitiveClosure of its own output is that output.
func TestFromMappingComponentsProperty(t *testing.T) {
	f := func(edges [][3]uint8, threshold uint8) bool {
		m := mapping.NewSame(gsPub, gsPub)
		for _, e := range edges {
			m.AddMax(model.ID(rune('a'+e[0]%12)), model.ID(rune('a'+e[1]%12)), float64(e[2])/255)
		}
		minSim := float64(threshold) / 255
		if got, want := FromMapping(m, minSim), bfsComponents(m, minSim); !reflect.DeepEqual(got, want) {
			t.Logf("minSim %v: FromMapping = %v, BFS = %v", minSim, got, want)
			return false
		}
		tc := TransitiveClosure(m, minSim)
		return tc.Equal(TransitiveClosure(tc, minSim), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// bfsComponents is the definition FromMapping implements: the connected
// components of the undirected graph of m's pairs with sim >= minSim.
func bfsComponents(m *mapping.Mapping, minSim float64) []Cluster {
	adj := make(map[model.ID][]model.ID)
	for _, c := range m.Correspondences() {
		if c.Sim >= minSim {
			adj[c.Domain] = append(adj[c.Domain], c.Range)
			adj[c.Range] = append(adj[c.Range], c.Domain)
		}
	}
	starts := make([]model.ID, 0, len(adj))
	for id := range adj {
		starts = append(starts, id)
	}
	slices.Sort(starts)
	seen := make(map[model.ID]bool)
	var out []Cluster
	for _, start := range starts {
		if seen[start] {
			continue
		}
		seen[start] = true
		comp := Cluster{start}
		for queue := []model.ID{start}; len(queue) > 0; queue = queue[1:] {
			for _, next := range adj[queue[0]] {
				if !seen[next] {
					seen[next] = true
					comp = append(comp, next)
					queue = append(queue, next)
				}
			}
		}
		if len(comp) > 1 {
			slices.Sort(comp)
			out = append(out, comp)
		}
	}
	return out
}

func clusterFixture() *mapping.Mapping {
	m := mapping.NewSame(gsPub, gsPub)
	m.Add("g1", "g2", 0.9)
	m.Add("g2", "g3", 0.8)
	m.Add("g4", "g5", 0.95)
	m.Add("g6", "g7", 0.3) // below typical threshold
	return m
}

func TestFromMapping(t *testing.T) {
	clusters := FromMapping(clusterFixture(), 0.5)
	want := []Cluster{{"g1", "g2", "g3"}, {"g4", "g5"}}
	if !reflect.DeepEqual(clusters, want) {
		t.Errorf("clusters = %v, want %v", clusters, want)
	}
}

func TestFromMappingThreshold(t *testing.T) {
	clusters := FromMapping(clusterFixture(), 0.85)
	// Only g1-g2 (0.9) and g4-g5 (0.95) survive; g2-g3 link broken.
	want := []Cluster{{"g1", "g2"}, {"g4", "g5"}}
	if !reflect.DeepEqual(clusters, want) {
		t.Errorf("clusters = %v, want %v", clusters, want)
	}
}

func TestSelfMapping(t *testing.T) {
	sm := SelfMapping(gsPub, []Cluster{{"a", "b", "c"}})
	if sm.Len() != 6 { // 3*2 ordered pairs
		t.Fatalf("Len = %d, want 6", sm.Len())
	}
	if !sm.Has("a", "c") || !sm.Has("c", "a") {
		t.Error("self-mapping must be symmetric and transitive")
	}
	if sm.Has("a", "a") {
		t.Error("diagonal must be excluded")
	}
	for _, c := range sm.Correspondences() {
		if c.Sim != 1 {
			t.Errorf("cluster pairs should have sim 1, got %v", c.Sim)
		}
	}
}

func TestTransitiveClosure(t *testing.T) {
	m := clusterFixture()
	tc := TransitiveClosure(m, 0.5)
	if !tc.Has("g1", "g3") {
		t.Error("closure should connect g1 and g3")
	}
	if tc.Has("g6", "g7") {
		t.Error("below-threshold pairs must be dropped")
	}
	// Closure is idempotent.
	tc2 := TransitiveClosure(tc, 0.5)
	if !tc.Equal(tc2, 0) {
		t.Error("closure should be idempotent")
	}
}

func TestTransitiveClosureCrossSourceNoop(t *testing.T) {
	m := mapping.NewSame(gsPub, model.LDS{Source: "ACM", Type: model.Publication})
	m.Add("g1", "p1", 0.9)
	got := TransitiveClosure(m, 0.5)
	if !got.Equal(m, 0) {
		t.Error("cross-source mapping should pass through unchanged")
	}
}

func TestFromMappingEmpty(t *testing.T) {
	m := mapping.NewSame(gsPub, gsPub)
	if got := FromMapping(m, 0.5); len(got) != 0 {
		t.Errorf("empty mapping should have no clusters, got %v", got)
	}
}
