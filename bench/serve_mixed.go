package main

// Workload serve_mixed: the paper world's Google Scholar publications (64 263
// records, a dense 3.9 k-term vocabulary) minus a seeded 10 % hold-out, served
// by moma-serve on a durable store. Clients run a closed-loop mix of 70 %
// resolve (DBLP titles), 15 % add (hold-out records, resolved on arrival, the
// delta logged) and 15 % remove (the client's own oldest add). The same
// serve/live/store layers as serve_read, used differently: reads are
// engine-bound (the score stage is nearly all of ~1 ms), and writes take the
// per-set mutex, the resolver's write lock and the WAL beside them. Adds
// equal removes, so the resident set keeps its size for the whole run.
//
// After the run the server is stopped with SIGTERM and restarted on the store
// directory alone; the delta mapping it replays must hold exactly the rows
// the clients' own ledger of acknowledged adds and removes predicts.
//
// Every call into the program's packages that serve_mixed makes is in this
// file or in serve_read.go, which it shares the server environment and the
// resolve probes with.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	moma "repro"
	"repro/bench/stats"
	"repro/bench/worldgen"
	"repro/internal/live"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/sources"
	"repro/internal/store"
)

// The resolver configuration mirrors the paper's DBLP-GS title matcher
// (experiments: trigram, threshold 0.75, two shared tokens).
const (
	mixedMinShared = 2
	mixedThreshold = 0.75
)

// deltaRow is one correspondence of the live delta mapping.
type deltaRow struct {
	Domain, Range string
	Sim           float64
}

// wireMatch and the two reply types decode the parts of moma-serve's wire
// format the ledger needs.
type wireMatch struct {
	ID  string  `json:"id"`
	Sim float64 `json:"sim"`
}

type addReply struct {
	Matches []wireMatch `json:"matches"`
}

type mappingReply struct {
	Len             int  `json:"len"`
	Truncated       bool `json:"truncated"`
	Correspondences []struct {
		Domain string  `json:"domain"`
		Range  string  `json:"range"`
		Sim    float64 `json:"sim"`
	} `json:"correspondences"`
}

// ackLedger is one client's record of what the server acknowledged: the rows
// each add reported and the ids removed. Added ids are never reused, so the
// final delta mapping does not depend on how the clients' operations
// interleaved: a row survives if neither end was removed.
type ackLedger struct {
	added   map[string][]wireMatch
	removed map[string]bool
}

func newAckLedger() *ackLedger {
	return &ackLedger{added: map[string][]wireMatch{}, removed: map[string]bool{}}
}

// predictRows merges the clients' ledgers into the rows the delta mapping
// must hold.
func predictRows(ledgers []*ackLedger) []deltaRow {
	removed := map[string]bool{}
	for _, l := range ledgers {
		for id := range l.removed {
			removed[id] = true
		}
	}
	var rows []deltaRow
	for _, l := range ledgers {
		for _, id := range slices.Sorted(maps.Keys(l.added)) {
			if removed[id] {
				continue
			}
			for _, m := range l.added[id] {
				if !removed[m.ID] {
					rows = append(rows, deltaRow{Domain: id, Range: m.ID, Sim: m.Sim})
				}
			}
		}
	}
	return rows
}

func sortRows(rows []deltaRow) {
	sort.Slice(rows, func(i, j int) bool { return rowLess(rows[i], rows[j]) })
}

// checkLedger compares the replayed delta mapping with the prediction: the
// same rows with the same similarities, nothing lost, nothing extra.
func checkLedger(predicted, got []deltaRow) []string {
	sortRows(predicted)
	sortRows(got)
	var failures []string
	report := func(format string, args ...any) {
		if len(failures) < 5 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}
	i, j := 0, 0
	for i < len(predicted) || j < len(got) {
		switch {
		case j == len(got) || (i < len(predicted) && rowLess(predicted[i], got[j])):
			report("acknowledged row %s -> %s is missing after restart", predicted[i].Domain, predicted[i].Range)
			i++
		case i == len(predicted) || rowLess(got[j], predicted[i]):
			report("row %s -> %s is in the store but the ledger does not predict it", got[j].Domain, got[j].Range)
			j++
		default:
			if predicted[i].Sim != got[j].Sim {
				report("row %s -> %s has sim %v after restart, %v was acknowledged", got[j].Domain, got[j].Range, got[j].Sim, predicted[i].Sim)
			}
			i++
			j++
		}
	}
	if len(failures) > 0 && len(predicted) != len(got) {
		failures = append(failures, fmt.Sprintf("the store holds %d delta rows, the ledger predicts %d", len(got), len(predicted)))
	}
	return failures
}

func rowLess(a, b deltaRow) bool {
	if a.Domain != b.Domain {
		return a.Domain < b.Domain
	}
	return a.Range < b.Range
}

// heldRecord is one hold-out record, ready to be added under fresh ids.
type heldRecord struct {
	id        string
	attrsJSON []byte // the record's attributes, encoded before any timing
}

// addBody splices a fresh id into a hold-out record's pre-encoded attributes;
// the result is what worldgen.AddBody(id, attrs) would encode. Ids are the
// generator's own plus a dotted suffix and need no escaping.
func (h heldRecord) addBody(id string) []byte {
	b := make([]byte, 0, len(id)+len(h.attrsJSON)+20)
	b = append(b, `{"id":"`...)
	b = append(b, id...)
	b = append(b, `","attrs":`...)
	b = append(b, h.attrsJSON...)
	return append(b, '}')
}

// mixedClient is one client's state: its schedule, its own slice of the
// hold-out, the ids it has added and not yet removed, and its ledger.
type mixedClient struct {
	sched       []worldgen.Op
	pos         int
	own         []heldRecord
	adds        int      // adds sent so far; names the next id
	outstanding []string // added and not yet removed, oldest first
	ledger      *ackLedger
	hits, known int
	took        []float64
	badReplies  int // acknowledged adds whose reply did not decode
}

// mixedSource feeds the 70/15/15 mix.
type mixedSource struct {
	instances  *url.URL // the set's instances collection; removes append "/<id>"
	resolveURL *url.URL
	bodies     [][]byte   // resolve bodies, one per DBLP title
	needles    [][][]byte // per query, the id patterns of its true resident matches
	clients    []*mixedClient
}

func (s *mixedSource) next(client int) request {
	c := s.clients[client]
	op := c.sched[c.pos%len(c.sched)]
	c.pos++
	kind := op.Kind
	// A remove with nothing to remove becomes an add.
	if kind == worldgen.OpRemove && len(c.outstanding) == 0 {
		kind = worldgen.OpAdd
	}
	switch kind {
	case worldgen.OpResolve:
		return request{kind: kindResolve, method: http.MethodPost, url: s.resolveURL, body: s.bodies[op.Query], tag: int(op.Query)}
	case worldgen.OpAdd:
		rec := c.own[c.adds%len(c.own)]
		id := fmt.Sprintf("%s.c%d.%d", rec.id, client, c.adds)
		c.adds++
		c.outstanding = append(c.outstanding, id)
		return request{kind: kindAdd, method: http.MethodPost, url: s.instances, body: rec.addBody(id), ref: id}
	default:
		id := c.outstanding[0]
		c.outstanding = c.outstanding[1:]
		u := *s.instances
		u.Path += "/" + id
		return request{kind: kindRemove, method: http.MethodDelete, url: &u, ref: id}
	}
}

func (s *mixedSource) done(client int, r request, status int, reply []byte) {
	if status != http.StatusOK {
		return
	}
	c := s.clients[client]
	switch r.kind {
	case kindResolve:
		if t, ok := tookUS(reply); ok {
			c.took = append(c.took, t)
		}
		if needles := s.needles[r.tag]; len(needles) > 0 {
			c.known++
			for _, n := range needles {
				if bytes.Contains(reply, n) {
					c.hits++
					break
				}
			}
		}
	case kindAdd:
		var rep addReply
		if err := json.Unmarshal(reply, &rep); err != nil {
			c.badReplies++
			return
		}
		c.ledger.added[r.ref] = rep.Matches
	case kindRemove:
		c.ledger.removed[r.ref] = true
	}
}

// mixedWorld is the generated input of the workload.
type mixedWorld struct {
	resident, held *model.ObjectSet
	titles         []string     // DBLP titles, the resolve queries
	truth          [][]model.ID // per title, its resident GS duplicates
}

func buildMixedWorld(o options) *mixedWorld {
	cfg := sources.SmallConfig()
	if o.quick {
		if o.seed != 0 {
			cfg.Seed = o.seed
		}
	} else {
		cfg = sources.PaperConfig()
		cfg.Seed = worldgen.PaperWorldSeed(o.seed)
	}
	d := sources.Generate(cfg)
	w := &mixedWorld{}
	// The hold-out is drawn from the GS entries that are duplicates of a
	// publication. The 58 k noise documents stay resident: their titles come
	// from a 180-to-8 640-title grammar, so a noise arrival scores some 15 000
	// candidates (about 19 ms) and matches dozens of exact copies — a fifth
	// of the adds would then take four fifths of the run and leave too few
	// add samples for a p99.
	ids := d.Perfect.PubDBLPGS.Dict().All()
	entry := map[model.ID]bool{}
	d.Perfect.PubDBLPGS.EachOrd(func(_, rng uint32, _ float64) bool {
		entry[ids[rng]] = true
		return true
	})
	entries := d.GS.Pubs.Filter(func(in *model.Instance) bool { return entry[in.ID] })
	_, w.held = worldgen.HoldOut(o.seed, entries, 0.10)
	w.resident = d.GS.Pubs.Filter(func(in *model.Instance) bool { return !w.held.Has(in.ID) })
	truth := map[model.ID][]model.ID{}
	d.Perfect.PubDBLPGS.EachOrd(func(dom, rng uint32, _ float64) bool {
		if w.resident.Has(ids[rng]) {
			truth[ids[dom]] = append(truth[ids[dom]], ids[rng])
		}
		return true
	})
	d.DBLP.Pubs.Each(func(in *model.Instance) bool {
		w.titles = append(w.titles, in.Attr("title"))
		w.truth = append(w.truth, truth[in.ID])
		return true
	})
	return w
}

// scheduleLen is far more operations than a client completes in a run.
const scheduleLen = 1 << 18

func newMixedSource(env *serveEnv, w *mixedWorld, seed int64, maxClients int) *mixedSource {
	s := &mixedSource{
		instances:  env.url("/sets/" + env.setName + "/instances"),
		resolveURL: env.url("/sets/" + env.setName + "/resolve"),
	}
	for i, title := range w.titles {
		s.bodies = append(s.bodies, worldgen.ResolveBody(title, resolveLimit))
		var needles [][]byte
		for _, id := range w.truth[i] {
			needles = append(needles, idNeedle(id))
		}
		s.needles = append(s.needles, needles)
	}
	var held []heldRecord
	w.held.Each(func(in *model.Instance) bool {
		attrs, err := json.Marshal(in.Attrs)
		if err != nil {
			panic(err) // a map of strings always marshals
		}
		held = append(held, heldRecord{id: string(in.ID), attrsJSON: attrs})
		return true
	})
	per := len(held) / maxClients
	for c := 0; c < maxClients; c++ {
		s.clients = append(s.clients, &mixedClient{
			sched:  worldgen.Schedule(seed, c, scheduleLen, len(w.titles)),
			own:    held[c*per : (c+1)*per],
			ledger: newAckLedger(),
		})
	}
	return s
}

// mixedSlice is the length of serve_mixed's slices: some 250 adds each,
// twenty-five beyond a slice's p90.
const mixedSlice = 2 * time.Second

func runServeMixed(o options) (*Result, error) {
	res := newResult(wlServeMixed, o)
	res.hostBound = true
	w := buildMixedWorld(o)
	res.note("resident", "%d GS publications resident, %d held out, %d DBLP titles as queries", w.resident.Len(), w.held.Len(), len(w.titles))
	res.note("policy", "%s", policyNote)

	storeDir := filepath.Join(o.tmpDir, "store")
	env, err := newServeEnv(o, res, w.resident,
		"-store", storeDir, "-min-shared", fmt.Sprint(mixedMinShared), "-threshold", fmt.Sprint(mixedThreshold), "-measure", "trigram")
	if err != nil {
		return nil, err
	}
	if err := env.measureSetup(); err != nil {
		return nil, err
	}
	src := newMixedSource(env, w, o.seed, runtime.NumCPU())
	l, err := env.load(src, o.host, mixedSlice)
	if err != nil {
		return nil, err
	}
	if err := env.stop(); err != nil {
		return nil, err
	}
	env.recordLoad(l)

	// An add costs what its record's candidates cost, and a client cycles
	// through a few hundred hold-out records, a different stretch of them in
	// every slice: the add latencies are taken over the whole phase.
	res.e2e("add_p50_us", stats.Median(l.whole.lat[kindAdd]))
	res.e2e("add_p90_us", l.calmPercentile(res, "add", kindAdd, 0.90))
	if o.trace {
		res.layer("client.add_p99_us", l.whole.p99(kindAdd).Value)
		res.layer("client.add_p50_us_cN", stats.Median(l.thr.lat[kindAdd]))
		res.layer("client.remove_p50_us", stats.Median(l.whole.lat[kindRemove]))
		res.layer("client.remove_p99_us", l.whole.p99(kindRemove).Value)
	}
	var hits, known []int
	var took [][]float64
	var ledgers []*ackLedger
	for i, c := range src.clients {
		hits, known, took, ledgers = append(hits, c.hits), append(known, c.known), append(took, c.took), append(ledgers, c.ledger)
		if c.badReplies > 0 {
			res.fail("client %d: %d acknowledged adds had a reply that did not decode", i, c.badReplies)
		}
	}
	res.e2e("resolve_hit_share", hitShare(hits, known))
	res.layer("serve.took_us_p50", stats.Median(slices.Concat(took...)))

	// Write-path counters over the 1-client phase.
	a, b := l.prom[0], l.prom[1]
	if n := delta(a, b, "moma_live_adds_total"); n > 0 {
		res.layer("store.wal_bytes_per_add", delta(a, b, "moma_store_wal_bytes_total")/n)
		res.layer("store.wal_records_per_add", delta(a, b, "moma_store_wal_records_total")/n)
	}
	res.layer("store.compactions", delta(a, b, "moma_store_compactions_total"))
	res.layer("store.fsyncs", delta(a, b, "moma_store_fsyncs_total"))
	res.layer("live.compactions", delta(a, b, "moma_live_compactions_total"))

	// Restart on the store the run left behind and read the deltas back.
	restart, err := env.start()
	if err != nil {
		return nil, err
	}
	res.layer("serve.restart_s", restart.Seconds())
	got, err := fetchDeltaRows(env)
	if err != nil {
		return nil, err
	}
	if err := env.stop(); err != nil {
		return nil, err
	}
	predicted := predictRows(ledgers)
	res.note("ledger", "%d delta rows predicted from the acknowledged adds and removes, %d replayed after restart", len(predicted), len(got))
	res.Attempted++
	if f := checkLedger(predicted, got); len(f) > 0 {
		res.Failed++
		res.Failures = append(res.Failures, f...)
	}

	if o.trace {
		cfg := live.Config{MinShared: mixedMinShared, Threshold: mixedThreshold,
			Columns: []live.Column{{QueryAttr: "title", SetAttr: "title", Sim: sim.Trigram}}}
		probeQueries := make([]probeQuery, min(1000, len(w.titles)))
		for i := range probeQueries {
			probeQueries[i] = probeQuery{title: w.titles[i], body: src.bodies[i]}
		}
		tr := newTracer()
		if err := probeTwice(res, tr, func(pass int, t *Tracer) (time.Duration, error) {
			storeDir := filepath.Join(o.tmpDir, fmt.Sprintf("probe-store-%d", pass))
			return 0, mixedProbes(t, res, env.setName, cfg, w, probeQueries, storeDir)
		}); err != nil {
			return nil, err
		}
		deriveServeLayers(res)
		res.layer("serve.add_self_us", res.PerLayer["serve.add_handler_us"].Value-
			res.PerLayer["live.add_resolve_us"].Value-res.PerLayer["store.put_delta_us"].Value)
		finishTrace(res, tr, o)
	}
	res.Correct = len(res.Failures) == 0
	return res, nil
}

// fetchDeltaRows reads the whole delta mapping of the served set. A run in
// which no add matched anything leaves no mapping at all.
func fetchDeltaRows(env *serveEnv) ([]deltaRow, error) {
	u := env.srv.url + "/mappings/live." + env.setName + "?limit=1000000000"
	resp, err := env.hc.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	var rep mappingReply
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, err
	}
	if rep.Truncated || rep.Len != len(rep.Correspondences) {
		return nil, fmt.Errorf("GET %s: %d of %d rows returned", u, len(rep.Correspondences), rep.Len)
	}
	rows := make([]deltaRow, len(rep.Correspondences))
	for i, c := range rep.Correspondences {
		rows[i] = deltaRow{Domain: c.Domain, Range: c.Range, Sim: c.Sim}
	}
	return rows, nil
}

// mixedProbes times the layers of the write path in this process, on a
// durable store in a temporary directory: the engine's AddResolve and Remove,
// the add handler, and the store's PutDelta and DropTouching alone.
func mixedProbes(tr *Tracer, res *Result, setName string, cfg live.Config, w *mixedWorld, queries []probeQuery, storeDir string) error {
	repo, err := store.OpenRepository(storeDir)
	if err != nil {
		return err
	}
	sys := moma.NewSystemWithRepository(repo)
	r, handler := resolveProbes(tr, res, sys, w.resident, setName, cfg, queries)

	// Half of up to 600 hold-out records arrive through the engine, the other
	// half through the handler.
	k := min(300, w.held.Len()/2)
	arrivals := make([]*model.Instance, k)
	requests := make([]*http.Request, k)
	writers := make([]*discardWriter, k)
	tr.Time("bench.prepare", func() {
		for i := range arrivals {
			in := w.held.At(i)
			arrivals[i] = model.NewInstance(model.ID(fmt.Sprintf("%s.probe", in.ID)), in.Attrs)
			in = w.held.At(k + i)
			requests[i] = handlerRequest(http.MethodPost, "/sets/"+setName+"/instances",
				worldgen.AddBody(fmt.Sprintf("%s.probe", in.ID), in.Attrs))
			writers[i] = newDiscardWriter()
		}
	})
	matches := make([][]live.Match, k)
	res.layer("live.add_resolve_us", stats.Median(tr.TimeEach("live.add_resolve", k, func(i int) {
		matches[i], _ = r.AddResolve(arrivals[i]) // fresh ids: AddResolve has nothing to reject
	})))
	res.layer("live.remove_us", stats.Median(tr.TimeEach("live.remove", k, func(i int) { r.Remove(arrivals[i].ID) })))

	// The store alone, with the rows the arrivals really produced.
	lds := w.resident.LDS()
	var putErr error
	res.layer("store.put_delta_us", stats.Median(tr.TimeEach("store.put_delta", k, func(i int) {
		rows := make([]mapping.Correspondence, len(matches[i]))
		for j, m := range matches[i] {
			rows[j] = mapping.Correspondence{Domain: arrivals[i].ID, Range: m.ID, Sim: m.Sim}
		}
		if err := repo.PutDelta("probe.delta", lds, lds, model.SameMappingType, rows); err != nil {
			putErr = err
		}
	})))
	res.layer("store.drop_touching_us", stats.Median(tr.TimeEach("store.drop_touching", k, func(i int) {
		if _, err := repo.DropTouching("probe.delta", arrivals[i].ID); err != nil {
			putErr = err
		}
	})))
	if putErr != nil {
		return fmt.Errorf("store probe: %w", putErr)
	}

	// The add handler end to end: decode, lock, AddResolve, delta write.
	res.layer("serve.add_handler_us", stats.Median(tr.TimeEach("serve.add_handler", k, func(i int) {
		handler.ServeHTTP(writers[i], requests[i])
	})))
	for i, wr := range writers {
		if wr.status != http.StatusOK {
			return fmt.Errorf("in-process add %d answered %d: %s", i, wr.status, wr.buf)
		}
	}
	return sys.Close()
}
