// Package workflow implements MOMA's match process model (§2.2, Figure 3):
// a workflow is a sequence of steps, each consisting of optional matcher
// executions plus a mapping combiner (a mapping operator followed by an
// optional selection). Steps read additional inputs from the mapping cache
// and the mapping repository, write their result to the cache, and the
// final same-mapping can be stored back into the repository for re-use by
// other match tasks. A whole workflow can register as a matcher in the
// matcher library ("Selected workflows can be added to the matcher library
// for use in other match tasks").
package workflow

import (
	"fmt"
	"strings"

	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/store"
)

// OpKind selects the mapping operator of a step's combiner.
type OpKind int

// Operators: merge unifies the step's input mappings; compose chains them
// left to right (two or more inputs).
const (
	OpMerge OpKind = iota
	OpCompose
)

// String names the operator.
func (k OpKind) String() string {
	switch k {
	case OpMerge:
		return "merge"
	case OpCompose:
		return "compose"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Step is one workflow step.
type Step struct {
	// Name labels the step; it defaults to "step<i>" and names the cache
	// entry holding the step result.
	Name string
	// Matchers are executed against the workflow inputs; their results
	// join the combiner inputs.
	Matchers []match.Matcher
	// Use references mappings by name, resolved against the cache first
	// (earlier step results) and the repository second.
	Use []string
	// Op combines the collected mappings.
	Op OpKind
	// F is the similarity combination function (merge; per-path for
	// compose).
	F mapping.Combiner
	// G is the path aggregation for compose.
	G mapping.PathAgg
	// Selection optionally filters the combined mapping.
	Selection mapping.Selection
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

// String renders the workflow structure.
func (w *Workflow) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workflow %s\n", w.Name)
	for i, s := range w.Steps {
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("step%d", i+1)
		}
		fmt.Fprintf(&b, "  %s: %d matchers, use=%v, op=%s(f=%s", name, len(s.Matchers), s.Use, s.Op, s.F.Kind)
		if s.Op == OpCompose {
			fmt.Fprintf(&b, ", g=%s", s.G)
		}
		b.WriteString(")")
		if s.Selection != nil {
			fmt.Fprintf(&b, " select=%s", s.Selection)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Engine executes workflows against a repository, a cache and the matcher
// library.
type Engine struct {
	Repo  *store.Store
	Cache *store.Store
	// Workers, when > 0, sets the scoring parallelism of every matcher that
	// supports external configuration (match.ConfigurableWorkers) and the
	// worker count of every mapping operator (merge, compose, and
	// worker-tunable selections) for the duration of a run; 0 keeps each
	// matcher's own setting and lets operators default to GOMAXPROCS.
	// Matchers and selections are never mutated — the engine runs
	// configured copies. Operator outputs are bit-identical at every
	// worker count, so Workers tunes wall-clock time only.
	Workers int
	// Trace receives progress lines when non-nil.
	Trace func(string)
}

// NewEngine returns an engine with a fresh unbounded cache.
func NewEngine(repo *store.Store) *Engine {
	return &Engine{Repo: repo, Cache: store.NewCache(0)}
}

// resolve finds a named mapping, cache first, then repository.
func (e *Engine) resolve(name string) (*mapping.Mapping, error) {
	if e.Cache != nil {
		if m, ok := e.Cache.Get(name); ok {
			return m, nil
		}
	}
	if e.Repo != nil {
		if m, ok := e.Repo.Get(name); ok {
			return m, nil
		}
	}
	return nil, fmt.Errorf("workflow: no mapping named %q in cache or repository", name)
}

// Run executes the workflow on the two input object sets and returns the
// final same-mapping. Each step result is cached under the step name; the
// final mapping is stored in the repository when the workflow requests it.
func (e *Engine) Run(w *Workflow, a, b *model.ObjectSet) (*mapping.Mapping, error) {
	if len(w.Steps) == 0 {
		return nil, fmt.Errorf("workflow: %s has no steps", w.Name)
	}
	var result *mapping.Mapping
	for i := range w.Steps {
		s := &w.Steps[i]
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("step%d", i+1)
		}
		var inputs []*mapping.Mapping
		for _, m := range s.Matchers {
			if e.Workers > 0 {
				if cw, ok := m.(match.ConfigurableWorkers); ok {
					m = cw.WithWorkers(e.Workers)
				}
			}
			mm, err := m.Match(a, b)
			if err != nil {
				return nil, fmt.Errorf("workflow: %s/%s: matcher %s: %w", w.Name, name, m.Name(), err)
			}
			if e.Trace != nil {
				e.Trace(fmt.Sprintf("%s/%s: matcher %s -> %d corrs", w.Name, name, m.Name(), mm.Len()))
			}
			inputs = append(inputs, mm)
		}
		for _, ref := range s.Use {
			mm, err := e.resolve(ref)
			if err != nil {
				return nil, fmt.Errorf("workflow: %s/%s: %w", w.Name, name, err)
			}
			inputs = append(inputs, mm)
		}
		if len(inputs) == 0 {
			return nil, fmt.Errorf("workflow: %s/%s: step has no inputs", w.Name, name)
		}
		var combined *mapping.Mapping
		var err error
		switch s.Op {
		case OpMerge:
			combined, err = mapping.MergeWorkers(s.F, e.Workers, inputs...)
		case OpCompose:
			if len(inputs) < 2 {
				err = fmt.Errorf("compose needs at least two mappings, got %d", len(inputs))
			} else {
				combined, err = mapping.ComposeChainWorkers(s.F, s.G, e.Workers, inputs...)
			}
		default:
			err = fmt.Errorf("unknown operator %d", int(s.Op))
		}
		if err != nil {
			return nil, fmt.Errorf("workflow: %s/%s: %w", w.Name, name, err)
		}
		if s.Selection != nil {
			sel := s.Selection
			if e.Workers > 0 {
				if t, ok := sel.(mapping.WorkerTunable); ok {
					sel = t.WithWorkers(e.Workers)
				}
			}
			combined = sel.Apply(combined)
		}
		if e.Trace != nil {
			e.Trace(fmt.Sprintf("%s/%s: %s -> %d corrs", w.Name, name, s.Op, combined.Len()))
		}
		if e.Cache != nil {
			if err := e.Cache.Put(name, combined); err != nil {
				return nil, fmt.Errorf("workflow: %s/%s: cache: %w", w.Name, name, err)
			}
		}
		result = combined
	}
	if w.StoreAs != "" && e.Repo != nil {
		if err := e.Repo.Put(w.StoreAs, result); err != nil {
			return nil, fmt.Errorf("workflow: %s: store result: %w", w.Name, err)
		}
	}
	return result, nil
}

// AsMatcher registers the workflow as a matcher: running it through the
// engine when invoked. This realizes the paper's note that workflows join
// the matcher library.
func (w *Workflow) AsMatcher(e *Engine) match.Matcher {
	return match.Func{
		MatcherName: w.Name,
		Fn: func(a, b *model.ObjectSet) (*mapping.Mapping, error) {
			return e.Run(w, a, b)
		},
	}
}

// MergeStep is a convenience constructor for the common merge step.
func MergeStep(name string, f mapping.Combiner, sel mapping.Selection, matchers ...match.Matcher) Step {
	return Step{Name: name, Matchers: matchers, Op: OpMerge, F: f, Selection: sel}
}

// ComposeStep is a convenience constructor for a compose step over named
// mappings.
func ComposeStep(name string, f mapping.Combiner, g mapping.PathAgg, sel mapping.Selection, use ...string) Step {
	return Step{Name: name, Use: use, Op: OpCompose, F: f, G: g, Selection: sel}
}
