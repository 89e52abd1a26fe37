// Package match implements MOMA's extensible matcher library (§2.2):
// generic attribute matchers parameterized by attribute pair, similarity
// function and threshold; a multi-attribute matcher; a TF-IDF matcher that
// builds its corpus from the match inputs; and the neighborhood matcher of
// §4.2 that derives same-mappings from association mappings plus an
// existing same-mapping.
//
// Matchers conform to a single interface — they produce a same-mapping —
// so that workflows can combine any of them uniformly, and they are
// registered by name in a Registry for use from the script language.
package match

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/mapping"
	"repro/internal/model"
)

// Matcher computes a same-mapping between two object sets of the same
// object type. Implementations must be safe for reuse across calls.
type Matcher interface {
	// Match returns a same-mapping between a and b.
	Match(a, b *model.ObjectSet) (*mapping.Mapping, error)
	// Name identifies the matcher in reports and registries.
	Name() string
}

// Func adapts a function to the Matcher interface.
type Func struct {
	MatcherName string
	Fn          func(a, b *model.ObjectSet) (*mapping.Mapping, error)
}

// Match implements Matcher.
func (f Func) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) { return f.Fn(a, b) }

// Name implements Matcher.
func (f Func) Name() string { return f.MatcherName }

// Registry holds named matchers. The paper's matcher library also admits
// whole workflows as matchers; anything satisfying Matcher can register.
type Registry struct {
	mu       sync.RWMutex
	matchers map[string]Matcher
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{matchers: make(map[string]Matcher)}
}

// Register adds a matcher under its name; duplicate names are rejected.
func (r *Registry) Register(m Matcher) error {
	if m == nil || m.Name() == "" {
		return fmt.Errorf("match: Register needs a named matcher")
	}
	key := strings.ToLower(m.Name())
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.matchers[key]; dup {
		return fmt.Errorf("match: duplicate matcher %q", m.Name())
	}
	r.matchers[key] = m
	r.order = append(r.order, m.Name())
	return nil
}

// MustRegister panics on Register error (static wiring).
func (r *Registry) MustRegister(m Matcher) {
	if err := r.Register(m); err != nil {
		panic(err)
	}
}

// Lookup finds a matcher by case-insensitive name.
func (r *Registry) Lookup(name string) (Matcher, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.matchers[strings.ToLower(name)]
	return m, ok
}

// Names returns registered names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// ConfigurableWorkers is implemented by matchers whose scoring parallelism
// can be configured externally. WithWorkers returns a copy with the given
// worker count — matchers must stay safe for reuse, so the receiver is never
// mutated. The workflow engine uses this to push one Workers setting through
// every matcher of a workflow.
type ConfigurableWorkers interface {
	Matcher
	// WithWorkers returns a copy of the matcher scoring with n workers.
	WithWorkers(n int) Matcher
}

// requireSameType validates that both inputs hold the same object type.
func requireSameType(a, b *model.ObjectSet) error {
	if !a.LDS().SameType(b.LDS()) {
		return fmt.Errorf("match: inputs must share an object type, got %s and %s", a.LDS(), b.LDS())
	}
	return nil
}

// sortedAttrValues collects the non-empty values of attr across a set,
// sorted, for corpus construction.
func sortedAttrValues(set *model.ObjectSet, attr string) []string {
	var vals []string
	set.Each(func(in *model.Instance) bool {
		if v := in.Attr(attr); v != "" {
			vals = append(vals, v)
		}
		return true
	})
	sort.Strings(vals)
	return vals
}
