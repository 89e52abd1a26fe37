// Package cluster groups instances connected by same-mappings into
// duplicate clusters via union-find, and converts clusters back into
// transitively-closed self-mappings.
//
// The paper's outlook (§5.6) proposes representing the duplicates within a
// dirty source like Google Scholar as self-mappings — "identifying clusters
// of duplicate entries" — which can then be composed with cross-source
// same-mappings to find more correspondences; this package provides that
// machinery.
package cluster

import (
	"sort"

	"repro/internal/mapping"
	"repro/internal/model"
)

// Cluster is one duplicate cluster: ids sorted ascending.
type Cluster []model.ID

// FromMapping unions all correspondence endpoints of a self-mapping (or any
// same-mapping within one LDS) with similarity >= minSim and returns the
// clusters of size >= 2, ordered by their smallest member.
//
// The union-find runs over the mapping's ordinal columns with array-based
// parent/rank state (endpoints are localized to dense indices as they
// appear), so clustering a million-row self-mapping performs integer finds
// and unions; id strings are resolved only to render the final clusters.
func FromMapping(m *mapping.Mapping, minSim float64) []Cluster {
	local := make(map[uint32]int32) // mapping-dict ordinal -> dense index
	var ords []uint32               // dense index -> mapping-dict ordinal
	var parent []int32
	var rank []int8
	localize := func(o uint32) int32 {
		if i, ok := local[o]; ok {
			return i
		}
		i := int32(len(ords))
		local[o] = i
		ords = append(ords, o)
		parent = append(parent, i)
		rank = append(rank, 0)
		return i
	}
	var find func(i int32) int32
	find = func(i int32) int32 {
		root := i
		for parent[root] != root {
			root = parent[root]
		}
		for parent[i] != root {
			parent[i], i = root, parent[i]
		}
		return root
	}
	m.EachOrd(func(d, r uint32, sim float64) bool {
		if sim < minSim {
			return true
		}
		ra, rb := find(localize(d)), find(localize(r))
		if ra == rb {
			return true
		}
		if rank[ra] < rank[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		if rank[ra] == rank[rb] {
			rank[ra]++
		}
		return true
	})
	ids := m.Dict().All()
	groups := make(map[int32][]model.ID)
	for i := range parent {
		root := find(int32(i))
		groups[root] = append(groups[root], ids[ords[i]])
	}
	var out []Cluster
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, Cluster(members))
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// SelfMapping expands clusters into a transitively closed self-mapping on
// lds: every ordered pair of distinct cluster members becomes a
// correspondence with similarity 1. This is the representation of source
// duplicates the paper composes with cross-source same-mappings.
func SelfMapping(lds model.LDS, clusters []Cluster) *mapping.Mapping {
	m := mapping.NewSame(lds, lds)
	dict := m.Dict()
	var ords []uint32
	for _, cl := range clusters {
		// Intern each member once; the quadratic expansion below then
		// inserts ordinal pairs only.
		ords = ords[:0]
		for _, id := range cl {
			ords = append(ords, dict.Ord(id))
		}
		for i := 0; i < len(ords); i++ {
			for j := 0; j < len(ords); j++ {
				if i != j {
					m.AddOrd(ords[i], ords[j], 1)
				}
			}
		}
	}
	return m
}

// TransitiveClosure returns the same-mapping closed under transitivity: if
// the input connects a-b and b-c (at >= minSim), the output also connects
// a-c. Similarities in the output are 1 within a cluster, reflecting the
// hard duplicate decision. Below-threshold correspondences are dropped.
func TransitiveClosure(m *mapping.Mapping, minSim float64) *mapping.Mapping {
	if m.Domain() != m.Range() {
		// Cross-source closure is the compose operator's job; here we only
		// close self-mappings.
		return m.Clone()
	}
	return SelfMapping(m.Domain(), FromMapping(m, minSim))
}
