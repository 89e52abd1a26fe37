package moma

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/live"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/script"
	"repro/internal/store"
	"repro/internal/workflow"
)

// System wires the MOMA architecture of Figure 3 together: the workflow
// engine, which runs workflows and scripts and whose namespace of object
// sets, step results and repository they read, and the live resolvers
// serving registered sets online. Like its stores it is safe for concurrent
// use.
type System struct {
	// Repo is the mapping repository (association and same-mappings), the
	// engine's.
	Repo *Store

	engine *workflow.Engine

	mu        sync.RWMutex
	resolvers map[string]*LiveResolver // guarded by mu
}

// NewSystem returns a system with an in-memory repository.
func NewSystem() *System { return NewSystemWithRepository(nil) }

// NewSystemWithRepository returns a system over a caller-built repository —
// one opened through store.OpenRepositoryFS with a fault injector
// (cmd/moma-serve's -fault-script), custom auto-compaction settings, or any
// other non-default store configuration. A nil repo falls back to a fresh
// in-memory repository.
func NewSystemWithRepository(repo *Store) *System {
	e := workflow.NewEngine(repo)
	return &System{Repo: e.Repo, engine: e, resolvers: make(map[string]*LiveResolver)}
}

// OpenSystem returns a system whose repository persists under dir (write-
// ahead log plus snapshot; see Store.Compact).
func OpenSystem(dir string) (*System, error) {
	repo, err := store.OpenRepository(dir)
	if err != nil {
		return nil, err
	}
	return NewSystemWithRepository(repo), nil
}

// AddObjectSet registers an object set under a qualified name such as
// "DBLP.Author", making it visible to scripts and constraints.
func (s *System) AddObjectSet(name string, set *ObjectSet) error {
	return s.engine.AddObjectSet(name, set)
}

// ObjectSetByName returns a registered object set.
func (s *System) ObjectSetByName(name string) (*ObjectSet, bool) { return s.engine.ObjectSet(name) }

// RegisterResolver builds a live resolver over a registered object set and
// installs it under the set's name, making the set answerable online
// (System.Resolver, cmd/moma-serve). The resolver snapshots the set; route
// later updates through Resolver.Add / Resolver.Remove.
func (s *System) RegisterResolver(setName string, cfg LiveConfig) (*LiveResolver, error) {
	set, ok := s.ObjectSetByName(setName)
	if !ok {
		return nil, fmt.Errorf("moma: unknown object set %q", setName)
	}
	r, err := live.NewResolver(set, cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.resolvers[setName]; dup {
		return nil, fmt.Errorf("moma: resolver for %q already registered", setName)
	}
	s.resolvers[setName] = r
	return r, nil
}

// Resolver returns the live resolver registered for the named set.
func (s *System) Resolver(setName string) (*LiveResolver, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.resolvers[setName]
	return r, ok
}

// ResolverNames lists the sets with registered resolvers, sorted.
func (s *System) ResolverNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.resolvers))
	for name := range s.resolvers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AddMapping stores a mapping in the repository under name.
func (s *System) AddMapping(name string, m *Mapping) error {
	return s.Repo.Put(name, m)
}

// MappingByName resolves a mapping: a step result first, then the
// repository.
func (s *System) MappingByName(name string) (*Mapping, bool) { return s.engine.Mapping(name) }

// Forget drops the result of the named step (Cache.X for a script's $X), so
// that it runs again, under a new definition too. It reports whether the
// system held one.
func (s *System) Forget(name string) bool { return s.engine.Forget(name) }

// RunScript parses and executes an iFuice-style script against the
// system's sources and mappings, which it reads as they are when the script
// names them. Each mapping-valued expression is a workflow step on the
// system's engine and runs once per System (see RunWorkflow): a top-level
// $X = … is the step Cache.X, so later scripts and workflows re-use it by
// that name, and rebinding $X to a different definition is an error naming
// both until Forget("Cache.X").
func (s *System) RunScript(src string) (Value, error) {
	return script.New(s.engine).RunSource(src)
}

// RunWorkflow executes a workflow on two registered object sets; with
// StoreAs, a one-step workflow matches them into the repository. A step
// runs once per System: a step whose result the system holds is read, not
// re-run, if its definition (the sets' identity and version, each matcher's
// configuration, its inputs, operator and selections) matches the
// result's, and fails naming both otherwise. A definition cannot see into a
// Where closure or the values a custom similarity function captures; Forget
// lets a step run again, under a new definition too.
func (s *System) RunWorkflow(w *Workflow, setA, setB string) (*Mapping, error) {
	var sets [2]*ObjectSet
	for i, name := range []string{setA, setB} {
		set, ok := s.ObjectSetByName(name)
		if !ok {
			return nil, fmt.Errorf("moma: unknown object set %q", name)
		}
		sets[i] = set
	}
	return s.engine.Run(w, sets[0], sets[1])
}

// LoadSource registers all object sets and association mappings of a
// generated synthetic source under its canonical names (DBLP.Publication,
// DBLP.VenuePub, ...).
func (s *System) LoadSource(src *DataSource) error {
	name := string(src.Name)
	type namedSet struct {
		suffix string
		set    *ObjectSet
	}
	for _, ns := range []namedSet{
		{string(model.Publication), src.Pubs},
		{string(model.Author), src.Authors},
		{string(model.Venue), src.Venues},
	} {
		if ns.set == nil {
			continue
		}
		if err := s.AddObjectSet(name+"."+ns.suffix, ns.set); err != nil {
			return err
		}
	}
	type namedMap struct {
		suffix string
		m      *mapping.Mapping
	}
	for _, nm := range []namedMap{
		{"VenuePub", src.VenuePub},
		{"PubVenue", src.PubVenue},
		{"AuthorPub", src.AuthorPub},
		{"PubAuthor", src.PubAuthor},
		{"CoAuthor", src.CoAuthor},
	} {
		if nm.m == nil {
			continue
		}
		if err := s.Repo.Put(name+"."+nm.suffix, nm.m); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the repository (flushes the write-ahead log when the
// system was opened with OpenSystem).
func (s *System) Close() error { return s.Repo.Close() }
