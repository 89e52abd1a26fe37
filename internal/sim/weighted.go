package sim

import "math"

// Weighted is the scoring stage of a multi-column comparison: the weighted
// mean of one similarity per column, kept when it reaches a threshold. The
// batch multi-attribute matcher and the live resolver both score through it,
// so the two agree bit for bit and prune alike.
//
// Columns are scored in configured order and the products summed as they
// come, which is the sum an unbounded loop computes. What the bound adds: as
// similarities lie in [0,1] (the Func contract), the columns still to come
// can add at most their weights, so before each column it is known what that
// column must at least score for the mean to reach the threshold. That is
// the floor its Compare gets; a floor above 1 or a score below the floor ends
// the candidate with the remaining columns unscored. Floors are lowered by a
// slack far above the rounding error of the sum and far below any difference
// between two scores, so rounding can only make the bound prune less.
type Weighted struct {
	cols  []weightedCol
	total float64
}

type weightedCol struct {
	ps    ProfiledSim
	keyed Keyed // ps when it is Keyed: its pairs are checked on their keys first
	w     float64
	// due is what the weighted sum must have reached after this column, were
	// every later column to score 1, less the slack; inv is 1/w.
	due, inv float64
}

// NewWeighted returns the scoring stage of the measures under the weights
// (non-negative, not all zero) and the threshold.
func NewWeighted(measures []ProfiledSim, weights []float64, threshold float64) *Weighted {
	wt := &Weighted{cols: make([]weightedCol, len(measures))}
	for _, w := range weights {
		wt.total += w
	}
	goal := threshold * wt.total
	slack := 1e-9 * (wt.total + math.Abs(goal))
	rest := wt.total
	for i, ps := range measures {
		w := weights[i]
		rest -= w
		c := weightedCol{ps: ps, w: w, due: goal - rest - slack, inv: 1 / w}
		c.keyed, _ = ps.(Keyed)
		if w == 0 {
			// A weightless column decides nothing: score it unbounded.
			c.due, c.inv = math.Inf(-1), 1
		}
		wt.cols[i] = c
	}
	return wt
}

// RowFilter returns the first column's key test at its floor, fixed since
// nothing is summed before it (the zero RowFilter, which rejects nothing,
// if the column is not Keyed): Score leaves those keys to the caller, who
// tests them once per row.
func (wt *Weighted) RowFilter() RowFilter {
	if c := &wt.cols[0]; c.keyed != nil {
		return c.keyed.RowFilter(c.due * c.inv)
	}
	return RowFilter{}
}

// Score returns the weighted mean of the columns' similarities, exactly
// whenever it reaches the threshold. at yields the two slots of column i
// (ProfileColumn.At, Profile.Ref) and is not retained. Below the threshold
// the result is some value under it, negative when a bound ended the
// candidate before every column was scored in full. A later Keyed column
// checks the keys before either slab is read (compareKeyed), the first
// merges (RowFilter): the result is what Compare returns.
func (wt *Weighted) Score(at func(i int) (a, b Ref)) float64 {
	var sum float64
	for i := range wt.cols {
		c := &wt.cols[i]
		floor := (c.due - sum) * c.inv
		if floor > 1 {
			return stopped
		}
		a, b := at(i)
		var s float64
		switch {
		case c.keyed == nil:
			s = c.ps.Compare(a, b, floor)
		case i == 0:
			s = c.keyed.Merge(a, b, floor)
		default:
			s = compareKeyed(c.keyed, a, b, floor)
		}
		// A column short of its floor ends the candidate, except the last
		// one when it was scored in full: nothing is left to save, so the
		// mean (under the threshold) is returned and reads as not pruned.
		if s < floor && (s < 0 || i+1 < len(wt.cols)) {
			return stopped
		}
		sum += c.w * s
	}
	return sum / wt.total
}
