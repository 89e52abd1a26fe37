// Package workflow implements MOMA's match process model (§2.2, Figure 3):
// a workflow is a sequence of steps, each consisting of optional matcher
// executions plus a mapping combiner (a mapping operator followed by
// selections). Steps read additional inputs from earlier step results and
// the mapping repository, and the final same-mapping can be stored back
// into the repository for re-use by other match tasks. The Engine that runs
// them is the match process's one namespace and its one executor:
// workflows, the scripts of internal/script (each mapping-valued
// expression is a step) and the System resolve mapping and object set
// names through it.
//
// A step runs once per engine: the engine holds each step's result, and a
// step whose name it holds is read, not re-run, so workflows and scripts
// chain through step names. Each result carries its step's definition: the
// two object sets (identity and Version) if the step has matchers, each
// matcher's String, each Use input (its own step's definition, or
// repo:<name>#<generation>, see store.Store.Generation), the operator,
// combiner, path aggregation and the selections in order. A hit on another
// definition is an error naming both, and naming the repository inputs that
// changed since the held result read them. A
// definition cannot see into a mapping.Where closure or the values a custom
// sim.Func captures; Forget lets a step run again, under a new definition
// too, and every held step that used it with it. A merge step's leading
// Threshold runs inside the merge (mapping.MergeAbove), with the same
// result and the same definition. The paper's evaluation
// (internal/experiments) runs on this engine.
package workflow

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/store"
)

// OpKind selects the mapping operator of a step's combiner.
type OpKind int

// Operators: merge unifies the step's input mappings (one input passes
// through unchanged, its combiner checked as a merge of one would check
// it); compose chains them left to right (two or more inputs); inverse
// swaps the domain and range of its one input.
const (
	OpMerge OpKind = iota
	OpCompose
	OpInverse
)

// String names the operator.
func (k OpKind) String() string {
	switch k {
	case OpMerge:
		return "merge"
	case OpCompose:
		return "compose"
	case OpInverse:
		return "inverse"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Step is one workflow step.
type Step struct {
	// Name is required. It names the step's result in the engine, and a
	// step whose result the engine already holds is not run again.
	Name string
	// Matchers are executed against the workflow inputs; their results
	// join the combiner inputs.
	Matchers []match.Matcher
	// Use references mappings by name, resolved against earlier step
	// results first and the repository second.
	Use []string
	// Op combines the collected mappings.
	Op OpKind
	// F is the similarity combination function (merge; per-path for
	// compose).
	F mapping.Combiner
	// G is the path aggregation for compose.
	G mapping.PathAgg
	// Select filters the combined mapping, applied in order.
	Select []mapping.Selection
}

// Workflow is a named sequence of steps.
type Workflow struct {
	Name  string
	Steps []Step
	// StoreAs persists the final mapping into the repository under this
	// name when non-empty.
	StoreAs string
}

// New starts a workflow definition.
func New(name string) *Workflow { return &Workflow{Name: name} }

// AddStep appends a step and returns the workflow for chaining.
func (w *Workflow) AddStep(s Step) *Workflow {
	w.Steps = append(w.Steps, s)
	return w
}

// Store sets the repository name for the final mapping.
func (w *Workflow) Store(name string) *Workflow {
	w.StoreAs = name
	return w
}

// NhMatch is the §4.2 nhMatch procedure as its two compose steps: asso1 ∘
// same averaged over paths, then that ∘ asso2 aggregated by g, selected by
// sel and named name. The first step is named "asso1 ∘ same", so
// neighborhood matchers over the same asso1 and same share it.
func NhMatch(name, asso1, same, asso2 string, g mapping.PathAgg, sel ...mapping.Selection) []Step {
	temp := asso1 + " ∘ " + same
	return []Step{
		{Name: temp, Use: []string{asso1, same}, Op: OpCompose, F: mapping.MinCombiner, G: mapping.AggAvg},
		{Name: name, Use: []string{temp, asso2}, Op: OpCompose, F: mapping.MinCombiner, G: g, Select: sel},
	}
}

// Engine is the namespace of Figure 3 and the executor of workflows over
// it: the mapping repository, the results of the steps it ran, and the
// object sets registered by name. It is safe for concurrent use.
//
// The definition check sees a repository mapping change only through the
// store's generation, which the store's writes move. A caller that changes
// a *mapping.Mapping from Repo.Get or Mapping in place bypasses the store,
// so a held step that read it is served as if nothing had changed: write a
// changed mapping back with Repo.Put, PutDelta or DropTouching instead.
type Engine struct {
	Repo *store.Store

	// run serializes Run and Forget, so two runs cannot record different
	// definitions under one step name.
	run sync.Mutex

	mu sync.RWMutex
	// steps holds the step results by step name. Run and Forget write it
	// holding run and mu; Run reads it holding run, others holding mu.
	steps map[string]*stepRecord
	sets  map[string]*model.ObjectSet // guarded by mu
	// byLDS holds the first set registered for each LDS, the one select()
	// constraints read.
	byLDS map[model.LDS]*model.ObjectSet // guarded by mu
}

// stepRecord is a result Run holds, its step's definition, pinned what
// that names by address, the step results its Use inputs read and the
// generations of the repository mappings they read.
type stepRecord struct {
	m     *mapping.Mapping
	def   string
	pins  []any
	uses  []stepUse
	repos []repoUse
}

// repoUse names a repository mapping a step read, with its generation.
type repoUse struct {
	name string
	gen  uint64
}

// stepUse names a step result a step read, with its definition.
type stepUse struct{ name, def string }

// NewEngine returns an engine over repo (a fresh in-memory repository when
// nil) that holds no step results and no object sets.
func NewEngine(repo *store.Store) *Engine {
	if repo == nil {
		repo = store.NewRepository()
	}
	return &Engine{
		Repo:  repo,
		steps: make(map[string]*stepRecord),
		sets:  make(map[string]*model.ObjectSet),
		byLDS: make(map[model.LDS]*model.ObjectSet),
	}
}

// Mapping finds a named mapping: a step result first, then the repository.
func (e *Engine) Mapping(name string) (*mapping.Mapping, bool) {
	e.mu.RLock()
	rec := e.steps[name]
	e.mu.RUnlock()
	if rec != nil {
		return rec.m, true
	}
	return e.Repo.Get(name)
}

// Steps lists the names of the step results the engine holds, sorted.
func (e *Engine) Steps() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return slices.Sorted(maps.Keys(e.steps))
}

// Forget drops the result of the named step, so that the next run of a step
// under that name runs it, under a new definition too. It reports whether
// the engine held one.
//
// Every held step whose definition used the result, directly or through
// other steps, is forgotten with it: a run that renders it under another
// definition runs it instead of failing, so one Forget of the step that
// read a changed set re-runs the whole chain above it. Until then it stays
// readable, and a run that renders it unchanged reads it, since its inputs
// ran again under the definitions it read.
func (e *Engine) Forget(name string) bool {
	e.run.Lock()
	defer e.run.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.steps[name]
	delete(e.steps, name)
	return ok
}

// AddObjectSet registers an object set under a qualified name such as
// "DBLP.Author". Names are unique; the first set registered for an LDS is
// the one ObjectSetFor returns.
func (e *Engine) AddObjectSet(name string, set *model.ObjectSet) error {
	if name == "" || set == nil {
		return fmt.Errorf("workflow: AddObjectSet needs a name and a set")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.sets[name]; dup {
		return fmt.Errorf("workflow: object set %q already registered", name)
	}
	e.sets[name] = set
	if _, ok := e.byLDS[set.LDS()]; !ok {
		e.byLDS[set.LDS()] = set
	}
	return nil
}

// ObjectSet returns the set registered under name.
func (e *Engine) ObjectSet(name string) (*model.ObjectSet, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	set, ok := e.sets[name]
	return set, ok
}

// ObjectSetFor returns the first set registered for lds.
func (e *Engine) ObjectSetFor(lds model.LDS) (*model.ObjectSet, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	set, ok := e.byLDS[lds]
	return set, ok
}

// Run executes the workflow on the two input object sets and returns the
// final same-mapping. The engine holds each step result under the step name
// with its definition (see the package comment). A step whose name it holds
// is read instead of run if the result is of the same definition, and is an
// error naming both otherwise: a step runs once per engine until Forget
// drops its result. Runs are serialized. The final mapping is stored in the
// repository when the workflow requests it.
func (e *Engine) Run(w *Workflow, a, b *model.ObjectSet) (*mapping.Mapping, error) {
	if len(w.Steps) == 0 {
		return nil, fmt.Errorf("workflow: %s has no steps", w.Name)
	}
	e.run.Lock()
	defer e.run.Unlock()
	var result *mapping.Mapping
	for i := range w.Steps {
		s := &w.Steps[i]
		if s.Name == "" {
			return nil, fmt.Errorf("workflow: %s: step %d has no name", w.Name, i+1)
		}
		rec := e.record(s, a, b)
		if held := e.steps[s.Name]; held != nil {
			if held.def == rec.def {
				result = held.m
				continue
			}
			if !e.forgotten(held) {
				return nil, fmt.Errorf("workflow: %s/%s: %sthe engine holds %s; the step is %s", w.Name, s.Name, movedRepos(held, rec), held.def, rec.def)
			}
		}
		m, err := e.runStep(s, a, b)
		if err != nil {
			return nil, fmt.Errorf("workflow: %s/%s: %w", w.Name, s.Name, err)
		}
		rec.m = m
		e.mu.Lock()
		e.steps[s.Name] = rec
		e.mu.Unlock()
		result = m
	}
	if w.StoreAs != "" {
		if err := e.Repo.Put(w.StoreAs, result); err != nil {
			return nil, fmt.Errorf("workflow: %s: store result: %w", w.Name, err)
		}
	}
	return result, nil
}

// forgotten reports whether rec read a step result, directly or through
// the steps it read, that the engine no longer holds under the definition
// rec read: Forget dropped it, and so rec with it.
func (e *Engine) forgotten(rec *stepRecord) bool {
	for _, u := range rec.uses {
		if held := e.steps[u.name]; held == nil || held.def != u.def || e.forgotten(held) {
			return true
		}
	}
	return false
}

// record returns the record step s would leave over a and b, without its
// result: the definition rendering what it computes, what the rendering
// names by address, and the step results it reads.
func (e *Engine) record(s *Step, a, b *model.ObjectSet) *stepRecord {
	var d strings.Builder
	rec := &stepRecord{}
	if len(s.Matchers) > 0 {
		fmt.Fprintf(&d, "sets(%s@%p#%d, %s@%p#%d) match%v ", a.LDS(), a, a.Version(), b.LDS(), b, b.Version(), s.Matchers)
		rec.pins = append(rec.pins, a, b, s.Matchers)
	}
	// A Use input renders as Mapping resolves it: a step result by its
	// definition, else by name.
	for _, ref := range s.Use {
		if used := e.steps[ref]; used != nil {
			fmt.Fprintf(&d, "use{%s} ", used.def)
			rec.pins = append(rec.pins, used.pins)
			rec.uses = append(rec.uses, stepUse{ref, used.def})
		} else {
			gen := e.Repo.Generation(ref)
			fmt.Fprintf(&d, "use(repo:%s#%d) ", ref, gen)
			rec.repos = append(rec.repos, repoUse{ref, gen})
		}
	}
	fmt.Fprintf(&d, "%s(f=%+v, g=%s)", s.Op, s.F, s.G)
	for _, sel := range s.Select {
		fmt.Fprintf(&d, " select(%#v)", sel)
	}
	rec.def = d.String()
	return rec
}

// movedRepos names the repository inputs of rec whose generation differs
// from the one held read, as a clause ending in "; ", or "".
func movedRepos(held, rec *stepRecord) string {
	var b strings.Builder
	for _, now := range rec.repos {
		for _, then := range held.repos {
			if then.name == now.name && then.gen != now.gen {
				fmt.Fprintf(&b, "repository mapping %q changed (generation %d, now %d); ", now.name, then.gen, now.gen)
			}
		}
	}
	return b.String()
}

// runStep runs the step's matchers, combines their results with the named
// mappings it uses, and applies its selections. A merge of two or more
// mappings takes a leading Threshold into its fold (mapping.MergeAbove),
// with the same result.
func (e *Engine) runStep(s *Step, a, b *model.ObjectSet) (*mapping.Mapping, error) {
	var inputs []*mapping.Mapping
	for _, m := range s.Matchers {
		mm, err := m.Match(a, b)
		if err != nil {
			return nil, fmt.Errorf("matcher %s: %w", m, err)
		}
		inputs = append(inputs, mm)
	}
	for _, ref := range s.Use {
		mm, ok := e.Mapping(ref)
		if !ok {
			return nil, fmt.Errorf("no step result or repository mapping named %q", ref)
		}
		inputs = append(inputs, mm)
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("step has no inputs")
	}
	out, err := inputs[0], error(nil)
	sels := s.Select
	switch s.Op {
	case OpMerge:
		if len(inputs) == 1 {
			err = s.F.Validate(1)
		} else if th, ok := leadingThreshold(sels); ok {
			out, err = mapping.MergeAbove(s.F, th.T, inputs...)
			sels = sels[1:]
		} else {
			out, err = mapping.Merge(s.F, inputs...)
		}
	case OpCompose:
		if len(inputs) < 2 {
			return nil, fmt.Errorf("compose needs at least two mappings, got %d", len(inputs))
		}
		out, err = mapping.ComposeChain(s.F, s.G, inputs...)
	case OpInverse:
		if len(inputs) != 1 {
			return nil, fmt.Errorf("inverse needs one mapping, got %d", len(inputs))
		}
		out = out.Inverse()
	default:
		return nil, fmt.Errorf("unknown operator %d", int(s.Op))
	}
	if err != nil {
		return nil, err
	}
	for _, sel := range sels {
		out = sel.Apply(out)
	}
	return out, nil
}

// leadingThreshold returns the first of sels if it is a Threshold.
func leadingThreshold(sels []mapping.Selection) (mapping.Threshold, bool) {
	if len(sels) == 0 {
		return mapping.Threshold{}, false
	}
	th, ok := sels[0].(mapping.Threshold)
	return th, ok
}
