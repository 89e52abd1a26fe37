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
// engine, whose namespace of object sets, mapping cache and repository the
// script interpreter reads too, and the live resolvers serving registered
// sets online. Like its stores it is safe for concurrent use.
type System struct {
	// Repo is the mapping repository (association and same-mappings), the
	// engine's.
	Repo *Store
	// Cache holds intermediate same-mappings of workflows and scripts, the
	// engine's.
	Cache *Store

	engine *workflow.Engine

	mu        sync.RWMutex
	resolvers map[string]*LiveResolver // guarded by mu
}

// NewSystem returns a system with in-memory repository and cache.
func NewSystem() *System { return NewSystemWithRepository(nil) }

// NewSystemWithRepository returns a system over a caller-built repository —
// one opened through store.OpenRepositoryFS with a fault injector
// (cmd/moma-serve's -fault-script), custom auto-compaction settings, or any
// other non-default store configuration. A nil repo falls back to a fresh
// in-memory repository.
func NewSystemWithRepository(repo *Store) *System {
	e := workflow.NewEngine(repo)
	return &System{Repo: e.Repo, Cache: e.Cache, engine: e, resolvers: make(map[string]*LiveResolver)}
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

// MappingByName resolves a mapping from cache first, then repository.
func (s *System) MappingByName(name string) (*Mapping, bool) { return s.engine.Mapping(name) }

// RunScript parses and executes an iFuice-style script against the
// system's sources and mappings, which it reads as they are when the script
// names them. Top-level assignments become cache entries, so later scripts
// (and workflows) can re-use them by name.
func (s *System) RunScript(src string) (Value, error) {
	parsed, err := script.Parse(src)
	if err != nil {
		return Value{}, err
	}
	ip := script.New(s.engine)
	v, err := ip.Run(parsed)
	if err != nil {
		return v, err
	}
	// Persist script-created mappings into the cache for re-use: a later
	// script references $Titles of this run as Cache.Titles.
	for _, st := range parsed.Stmts {
		if assign, ok := st.(*script.Assign); ok {
			if val, ok := ip.Global(assign.Name); ok && val.Kind == script.MappingValue {
				// Best effort; a full cache is the only failure mode.
				_ = s.Cache.Put("Cache."+assign.Name, val.Mapping)
			}
		}
	}
	return v, nil
}

// RunWorkflow executes a workflow on two registered object sets; with
// StoreAs, a one-step workflow matches them into the repository. A step
// runs once per System: a step whose name the cache holds is read, not
// re-run, if its definition (the sets' identity and version, each matcher's
// configuration, its inputs, operator and selections) matches the entry's,
// and fails naming both otherwise. A definition cannot see into a Where
// closure or the values a custom similarity function captures; Cache.Delete
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
