package script

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mapping"
	"repro/internal/model"
)

// ConstraintExpr is a compiled constraint usable as a mapping selection.
type ConstraintExpr struct {
	src  string
	root Expr
}

// Eval evaluates the constraint for one correspondence. Instances may be
// nil; attribute references on nil instances yield empty strings (id
// references still work through the correspondence).
func (c *ConstraintExpr) Eval(corr mapping.Correspondence, domain, rng *model.Instance) (bool, error) {
	return c.eval(row{corr: corr, domain: side{in: domain}, rng: side{in: rng}})
}

// eval evaluates the constraint for one row.
func (c *ConstraintExpr) eval(r row) (bool, error) {
	v, err := r.value(c.root)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("script: constraint %q does not evaluate to a condition", c.src)
	}
	return b, nil
}

// Selection adapts the constraint to mapping.Selection given the two
// object sets (either may be nil; see Eval).
func (c *ConstraintExpr) Selection(domainSet, rangeSet *model.ObjectSet) mapping.Selection {
	return &constraintSelection{expr: c, domainSet: domainSet, rangeSet: rangeSet}
}

// String returns the source text.
func (c *ConstraintExpr) String() string { return c.src }

type constraintSelection struct {
	expr      *ConstraintExpr
	domainSet *model.ObjectSet
	rangeSet  *model.ObjectSet
}

func (s *constraintSelection) Apply(m *mapping.Mapping) *mapping.Mapping {
	return m.Filter(func(corr mapping.Correspondence) bool {
		ok, err := s.expr.eval(row{corr: corr, domain: member(s.domainSet, corr.Domain), rng: member(s.rangeSet, corr.Range)})
		return err == nil && ok
	})
}

func (s *constraintSelection) String() string { return "Constraint(" + s.expr.src + ")" }

// GoString renders the selection in a step's definition: the source text
// and the version of each set it reads. A script's constraint reads the
// engine's first set for the mapping's domain and range, so their LDS names
// them.
func (s *constraintSelection) GoString() string {
	return fmt.Sprintf("%s over %s, %s", s, setVersion(s.domainSet), setVersion(s.rangeSet))
}

// setVersion renders set by its LDS and Version, or says there is none.
func setVersion(set *model.ObjectSet) string {
	if set == nil {
		return "no set"
	}
	return fmt.Sprintf("%s#%d", set.LDS(), set.Version())
}

// row is what a constraint reads: one correspondence and its two sides.
type row struct {
	corr   mapping.Correspondence
	domain side
	rng    side
}

// side is the instance on one side of a row: a set member, read by
// ordinal, or a standalone instance. A side with neither reads every
// attribute as "".
type side struct {
	set *model.ObjectSet
	ord int
	in  *model.Instance
}

// member is the side of id in set, which may be nil or lack the id.
func member(set *model.ObjectSet, id model.ID) side {
	if set != nil {
		if i := set.IndexOf(id); i >= 0 {
			return side{set: set, ord: i}
		}
	}
	return side{}
}

func (s side) attr(name string) string {
	if s.set != nil {
		return s.set.Attr(s.ord, name)
	}
	return s.in.Attr(name)
}

// value evaluates e to a float64, a string or a bool. Both operands of a
// binary operator are evaluated before it applies.
func (r *row) value(e Expr) (any, error) {
	switch e := e.(type) {
	case *NumberLit:
		return e.Value, nil
	case *Quoted:
		return e.Value, nil
	case *Ref:
		in, id := r.domain, r.corr.Domain
		if e.Side == "range" {
			in, id = r.rng, r.corr.Range
		}
		switch e.Attr {
		case "id":
			return string(id), nil
		case "sim":
			return r.corr.Sim, nil
		}
		return in.attr(e.Attr), nil
	case *Abs:
		v, err := r.value(e.X)
		if err != nil {
			return nil, err
		}
		f, ok := number(v)
		if !ok {
			return nil, fmt.Errorf("script: abs() needs a number, got %v", v)
		}
		if f < 0 {
			f = -f
		}
		return f, nil
	case *Binary:
		return r.binary(e)
	}
	return nil, fmt.Errorf("script: %s is not a constraint", e)
}

func (r *row) binary(b *Binary) (any, error) {
	l, err := r.value(b.L)
	if err != nil {
		return nil, err
	}
	rv, err := r.value(b.R)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case "AND", "OR":
		lb, lok := l.(bool)
		rb, rok := rv.(bool)
		if !lok || !rok {
			return nil, fmt.Errorf("script: %s needs conditions on both sides", b.Op)
		}
		if b.Op == "AND" {
			return lb && rb, nil
		}
		return lb || rb, nil
	}
	lf, lok := number(l)
	rf, rok := number(rv)
	switch {
	case b.Op == "+" || b.Op == "-":
		if !lok || !rok {
			return nil, fmt.Errorf("script: arithmetic needs numbers, got %v and %v", l, rv)
		}
		if b.Op == "+" {
			return lf + rf, nil
		}
		return lf - rf, nil
	case lok && rok:
		return compare(b.Op, lf, rf), nil
	default:
		return compare(b.Op, text(l), text(rv)), nil
	}
}

// compare applies a comparison operator.
func compare[T float64 | string](op string, l, r T) bool {
	switch op {
	case "=":
		return l == r
	case "<>", "!=":
		return l != r
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	default: // ">="
		return l >= r
	}
}

// number reads a value as a number: a number is one, and so is a string
// that parses as one around blanks.
func number(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case string:
		// Only these bytes start a float ParseFloat accepts (digits, a sign,
		// a point, inf, nan); ids and words fail here without the error
		// value ParseFloat would allocate.
		s := strings.TrimSpace(x)
		if s == "" || strings.IndexByte("0123456789+-.iInN", s[0]) < 0 {
			return 0, false
		}
		f, err := strconv.ParseFloat(s, 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// text renders a value for a string comparison.
func text(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return strconv.FormatBool(v.(bool))
	}
}
