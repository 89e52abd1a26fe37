// Package b is golden input for dictgrowth: the dictionary-owning side.
package b

// Dict is a toy interning dictionary.
type Dict struct {
	ids  map[string]int
	strs []string
}

// ID interns s.
//
//moma:interns
func (d *Dict) ID(s string) int {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := len(d.strs)
	d.strs = append(d.strs, s)
	d.ids[s] = id
	return id
}

// Lookup probes without growing.
func (d *Dict) Lookup(s string) (int, bool) {
	id, ok := d.ids[s]
	return id, ok
}

// Profiler's ProfileInto may intern by contract.
type Profiler interface {
	//moma:interns implementations may grow the dictionary
	ProfileInto(s string, p *[]int)
}

// Helper interns transitively — reachability must cross into package a via
// an exported fact on Helper.
func Helper(d *Dict, s string) int {
	return d.ID(s)
}
