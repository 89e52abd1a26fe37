package moma

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/live"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/script"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workflow"
)

// System wires the MOMA architecture of Figure 3 together: the mapping
// repository, the mapping cache, the matcher library, the similarity
// registry, the workflow engine and the script interpreter, all sharing
// one namespace of sources and mappings.
type System struct {
	// Repo is the mapping repository (association and same-mappings).
	Repo *Store
	// Cache holds intermediate same-mappings of running workflows.
	Cache *Store
	// Matchers is the extensible matcher library.
	Matchers *MatcherRegistry
	// Sims resolves similarity-function names.
	Sims *SimRegistry

	// mu guards sets, byLDS and resolvers: the system is the shared
	// Figure-3 architecture, and like Store it must be safe for concurrent
	// use (concurrent RunScript / AddObjectSet / RunWorkflow calls).
	mu   sync.RWMutex
	sets map[string]*ObjectSet
	// byLDS holds the first set registered for each LDS, the one select()
	// constraints read.
	byLDS     map[model.LDS]*ObjectSet
	resolvers map[string]*LiveResolver
	engine    *workflow.Engine
}

// NewSystem returns a system with in-memory repository and cache.
func NewSystem() *System {
	return newSystem(store.NewRepository())
}

// NewSystemWithRepository returns a system over a caller-built repository —
// one opened through store.OpenRepositoryFS with a fault injector
// (cmd/moma-serve's -fault-script), custom auto-compaction settings, or any
// other non-default store configuration. A nil repo falls back to a fresh
// in-memory repository.
func NewSystemWithRepository(repo *Store) *System {
	if repo == nil {
		repo = store.NewRepository()
	}
	return newSystem(repo)
}

// OpenSystem returns a system whose repository persists under dir (write-
// ahead log plus snapshot; see Store.Compact).
func OpenSystem(dir string) (*System, error) {
	repo, err := store.OpenRepository(dir)
	if err != nil {
		return nil, err
	}
	return newSystem(repo), nil
}

func newSystem(repo *store.Store) *System {
	s := &System{
		Repo:      repo,
		Cache:     store.NewCache(0),
		Matchers:  match.NewRegistry(),
		Sims:      sim.NewRegistry(),
		sets:      make(map[string]*ObjectSet),
		byLDS:     make(map[model.LDS]*ObjectSet),
		resolvers: make(map[string]*LiveResolver),
	}
	s.engine = &workflow.Engine{Repo: s.Repo, Cache: s.Cache}
	return s
}

// AddObjectSet registers an object set under a qualified name such as
// "DBLP.Author", making it visible to scripts and constraints.
func (s *System) AddObjectSet(name string, set *ObjectSet) error {
	if name == "" || set == nil {
		return fmt.Errorf("moma: AddObjectSet needs a name and a set")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.sets[name]; dup {
		return fmt.Errorf("moma: object set %q already registered", name)
	}
	s.sets[name] = set
	if _, ok := s.byLDS[set.LDS()]; !ok {
		s.byLDS[set.LDS()] = set
	}
	return nil
}

// ObjectSetByName returns a registered object set.
func (s *System) ObjectSetByName(name string) (*ObjectSet, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, ok := s.sets[name]
	return set, ok
}

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
func (s *System) MappingByName(name string) (*Mapping, bool) {
	if m, ok := s.Cache.Get(name); ok {
		return m, true
	}
	return s.Repo.Get(name)
}

// RunScript parses and executes an iFuice-style script against the
// system's sources and mappings, which it reads as they are when the script
// names them. Top-level assignments become cache entries, so later scripts
// (and workflows) can re-use them by name.
func (s *System) RunScript(src string) (Value, error) {
	parsed, err := script.Parse(src)
	if err != nil {
		return Value{Kind: script.NoValue}, err
	}
	ip := script.New(scriptEnv{s})
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

// scriptEnv is the system as a running script's environment.
type scriptEnv struct{ *System }

func (e scriptEnv) LookupMapping(name string) (*Mapping, bool) { return e.MappingByName(name) }

func (e scriptEnv) LookupObjectSet(name string) (*ObjectSet, bool) { return e.ObjectSetByName(name) }

func (e scriptEnv) ObjectSetFor(lds model.LDS) (*ObjectSet, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	set, ok := e.byLDS[lds]
	return set, ok
}

func (e scriptEnv) SimFunc(name string) (sim.Func, bool) {
	if e.Sims == nil {
		return nil, false
	}
	return e.Sims.Lookup(name)
}

// RunWorkflow executes a workflow on two registered object sets.
func (s *System) RunWorkflow(w *Workflow, setA, setB string) (*Mapping, error) {
	a, ok := s.ObjectSetByName(setA)
	if !ok {
		return nil, fmt.Errorf("moma: unknown object set %q", setA)
	}
	b, ok := s.ObjectSetByName(setB)
	if !ok {
		return nil, fmt.Errorf("moma: unknown object set %q", setB)
	}
	return s.engine.Run(w, a, b)
}

// Engine exposes the workflow engine (e.g. to register workflows as
// matchers in the library).
func (s *System) Engine() *Engine { return s.engine }

// MatchAndStore runs a matcher on two registered sets and stores the
// resulting same-mapping in the repository under mappingName.
func (s *System) MatchAndStore(m Matcher, setA, setB, mappingName string) (*Mapping, error) {
	a, ok := s.ObjectSetByName(setA)
	if !ok {
		return nil, fmt.Errorf("moma: unknown object set %q", setA)
	}
	b, ok := s.ObjectSetByName(setB)
	if !ok {
		return nil, fmt.Errorf("moma: unknown object set %q", setB)
	}
	res, err := m.Match(a, b)
	if err != nil {
		return nil, err
	}
	if mappingName != "" {
		if err := s.Repo.Put(mappingName, res); err != nil {
			return nil, err
		}
	}
	return res, nil
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
