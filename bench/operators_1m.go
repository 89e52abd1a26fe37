package main

// Workload operators_1m: the paper's mapping operators at repository scale.
// Chain, overlap and fan-out-4 mappings of 1 M rows; eight cycles of a round
// of Compose(Min, Relative) + Merge(Avg) + BestN(1, domain) + Threshold(0.8)
// and of the Best-1 output (250 k rows) going into a fresh durable store,
// which is closed and reopened (the cold start). mapping, par and store do
// all the work: no similarity, blocking, matcher or HTTP code runs,
// so a matcher optimisation must show no change here and an operator or
// WAL-format change shows only here.
//
// Every call into the program's packages that this workload makes is in
// this file.

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/store"
)

// opsInputs are the operator inputs, in the shapes of the repository's
// operator benchmarks: every compose output pair is reached over exactly two
// paths, the merge inputs overlap by half, Best-n groups have four rows.
type opsInputs struct {
	n              int
	chain1, chain2 *mapping.Mapping // a_{i/2} -> c_i, c_i -> b_{i/2}
	over1, over2   *mapping.Mapping // a_i -> b_i and the same shifted by n/2
	fanout         *mapping.Mapping // a_{i/4} -> b_i
	atThreshold    int              // fan-out rows with sim >= opsThreshold
}

const (
	opsThreshold = 0.8
	opsCycles    = 8 // measured repetitions of rounds, persist and cold start
	// roundsPerCycle is two because the rounds' times scatter most: 0.6 to
	// 1.1 s within one run.
	roundsPerCycle = 2
)

// buildOpsInputs builds the five input mappings through Mapping.Add. The
// seed shifts the id numbering and the similarity pattern, so two seeds
// intern different ids and hash differently while every output size stays
// a fixed function of n.
func buildOpsInputs(seed int64, n int) *opsInputs {
	off := int(uint64(seed*2654435761) % 1000003)
	a := model.LDS{Source: "A", Type: model.Publication}
	b := model.LDS{Source: "B", Type: model.Publication}
	c := model.LDS{Source: "C", Type: model.Publication}
	in := &opsInputs{
		n:      n,
		chain1: mapping.NewSame(a, c), chain2: mapping.NewSame(c, b),
		over1: mapping.NewSame(a, b), over2: mapping.NewSame(a, b),
		fanout: mapping.NewSame(a, b),
	}
	var buf [24]byte
	id := func(prefix byte, k int) model.ID {
		buf[0] = prefix
		return model.ID(strconv.AppendInt(buf[:1], int64(k+off), 10))
	}
	for i := 0; i < n; i++ {
		s := 0.5 + float64((i+off)%50)/100
		in.chain1.Add(id('a', i/2), id('c', i), s)
		in.chain2.Add(id('c', i), id('b', i/2), s)
		in.over1.Add(id('a', i), id('b', i), s)
		in.over2.Add(id('a', i+n/2), id('b', i+n/2), s)
		in.fanout.Add(id('a', i/4), id('b', i), s)
		if s >= opsThreshold {
			in.atThreshold++
		}
	}
	return in
}

// opsOutputs are one round's results.
type opsOutputs struct {
	compose, merge, bestn, threshold *mapping.Mapping
}

// opsTimes are one round's durations in seconds.
type opsTimes struct{ compose, merge, bestn, threshold float64 }

func (t opsTimes) total() float64 { return t.compose + t.merge + t.bestn + t.threshold }

// opsRound runs the four operators once. workers = 0 uses the operators'
// default parallelism; Threshold has no parallel form.
func opsRound(tr *Tracer, in *opsInputs, workers int, suffix string) (opsOutputs, opsTimes, error) {
	var out opsOutputs
	var t opsTimes
	var err error
	t.compose = tr.Time("mapping.compose"+suffix, func() {
		if workers == 0 {
			out.compose, err = mapping.Compose(in.chain1, in.chain2, mapping.MinCombiner, mapping.AggRelative)
		} else {
			out.compose, err = mapping.ComposeWorkers(in.chain1, in.chain2, mapping.MinCombiner, mapping.AggRelative, workers)
		}
	}).Seconds()
	if err != nil {
		return out, t, fmt.Errorf("compose: %w", err)
	}
	t.merge = tr.Time("mapping.merge"+suffix, func() {
		if workers == 0 {
			out.merge, err = mapping.Merge(mapping.AvgCombiner, in.over1, in.over2)
		} else {
			out.merge, err = mapping.MergeWorkers(mapping.AvgCombiner, workers, in.over1, in.over2)
		}
	}).Seconds()
	if err != nil {
		return out, t, fmt.Errorf("merge: %w", err)
	}
	best := mapping.BestN{N: 1, Side: mapping.DomainSide}
	t.bestn = tr.Time("mapping.bestn"+suffix, func() {
		if workers == 0 {
			out.bestn = best.Apply(in.fanout)
		} else {
			out.bestn = best.WithWorkers(workers).Apply(in.fanout)
		}
	}).Seconds()
	t.threshold = tr.Time("mapping.threshold"+suffix, func() {
		out.threshold = mapping.Threshold{T: opsThreshold}.Apply(in.fanout)
	}).Seconds()
	return out, t, nil
}

// checkOpsSizes verifies the output sizes the input shapes fix.
func checkOpsSizes(in *opsInputs, out opsOutputs) []string {
	var failures []string
	want := func(name string, m *mapping.Mapping, rows int) {
		if m.Len() != rows {
			failures = append(failures, fmt.Sprintf("%s produced %d rows, want %d", name, m.Len(), rows))
		}
	}
	want("compose", out.compose, in.n/2)
	want("merge", out.merge, in.n+in.n/2)
	want("bestn", out.bestn, in.n/4)
	want("threshold", out.threshold, in.atThreshold)
	return failures
}

// ordHash hashes a mapping's rows — ordinals, similarity bits, order — for
// the bit-identity comparison between worker counts. It is valid between
// mappings of one dictionary.
func ordHash(m *mapping.Mapping) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	m.EachOrd(func(d, r uint32, s float64) bool {
		putRow(buf[:], d, r, s)
		h.Write(buf[:])
		return true
	})
	return h.Sum64()
}

func putRow(buf []byte, d, r uint32, s float64) {
	bits := math.Float64bits(s)
	for i := 0; i < 4; i++ {
		buf[i] = byte(d >> (8 * i))
		buf[4+i] = byte(r >> (8 * i))
	}
	for i := 0; i < 8; i++ {
		buf[8+i] = byte(bits >> (8 * i))
	}
}

// contentHash hashes a mapping's rows by instance id rather than ordinal,
// so a mapping replayed into another dictionary compares equal to the one
// that was put.
func contentHash(m *mapping.Mapping) uint64 {
	ids := m.Dict().All()
	h := fnv.New64a()
	var buf [8]byte
	m.EachOrd(func(d, r uint32, s float64) bool {
		h.Write([]byte(ids[d]))
		h.Write([]byte{0})
		h.Write([]byte(ids[r]))
		h.Write([]byte{0})
		bits := math.Float64bits(s)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
		return true
	})
	return h.Sum64()
}

// checkIdentical compares the workers=1 outputs with the default-workers
// outputs, order included, and returns the failures and the identical count.
func checkIdentical(def, seq opsOutputs) (failures []string, identical int) {
	for _, p := range []struct {
		name     string
		def, seq *mapping.Mapping
	}{{"compose", def.compose, seq.compose}, {"merge", def.merge, seq.merge}, {"bestn", def.bestn, seq.bestn}} {
		if p.def.Len() == p.seq.Len() && ordHash(p.def) == ordHash(p.seq) {
			identical++
		} else {
			failures = append(failures, fmt.Sprintf("%s with workers=1 is not bit-identical to default workers", p.name))
		}
	}
	return failures, identical
}

// checkReopened compares a replayed mapping with the one that was put.
func checkReopened(name string, put, got *mapping.Mapping) string {
	switch {
	case got == nil:
		return fmt.Sprintf("%s is missing after reopening the store", name)
	case got.Len() != put.Len():
		return fmt.Sprintf("%s has %d rows after reopening, %d were put", name, got.Len(), put.Len())
	case contentHash(got) != contentHash(put):
		return fmt.Sprintf("%s differs in content after reopening", name)
	}
	return ""
}

// calmRound reduces the rounds of one run to one: each operator's calm
// quartile over the rounds (hostref.go). The round's total is the sum of
// the four, so the parts add up to the whole exactly.
func calmRound(rounds []opsTimes) opsTimes {
	col := func(f func(opsTimes) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, t := range rounds {
			xs[i] = f(t)
		}
		return calm(xs)
	}
	return opsTimes{
		compose:   col(func(t opsTimes) float64 { return t.compose }),
		merge:     col(func(t opsTimes) float64 { return t.merge }),
		bestn:     col(func(t opsTimes) float64 { return t.bestn }),
		threshold: col(func(t opsTimes) float64 { return t.threshold }),
	}
}

// checkedRound runs one round at default workers and checks its output sizes.
func checkedRound(res *Result, in *opsInputs) (opsOutputs, opsTimes, error) {
	out, t, err := opsRound(nil, in, 0, "")
	if err != nil {
		return out, t, err
	}
	res.Attempted += 4
	if f := checkOpsSizes(in, out); len(f) > 0 {
		res.Failed += len(f)
		res.Failures = append(res.Failures, f...)
	}
	return out, t, nil
}

// persistOnce puts m into a fresh durable store in dir and closes it,
// returning the time that took and the WAL bytes written.
func persistOnce(dir string, m *mapping.Mapping) (seconds, walBytes float64, err error) {
	prom0 := localProm()
	t0 := time.Now()
	repo, err := store.OpenRepository(dir)
	if err != nil {
		return 0, 0, err
	}
	if err := repo.Put("ops.bestn", m); err != nil {
		return 0, 0, err
	}
	if err := repo.Close(); err != nil {
		return 0, 0, err
	}
	seconds = time.Since(t0).Seconds()
	return seconds, delta(prom0, localProm(), "moma_store_wal_bytes_total"), nil
}

func runOperators1M(o options) (*Result, error) {
	res := newResult(wlOperators1M, o)
	res.hostBound = true
	n, cycles := 1_000_000, opsCycles
	if o.quick {
		n, cycles = 8_000, 3 // still above the operators' 2 048-row chunk floor, so the parallel paths run
	}
	res.note("rows", "%d", n)

	mem0 := readMem()
	t0 := time.Now()
	in := buildOpsInputs(o.seed, n)
	setup := time.Since(t0)
	res.e2e("setup_s", setup.Seconds())
	res.layer("mapping.build_rows_per_s", float64(5*n)/setup.Seconds())
	// The same inputs at a tenth of the size: below the 128 k-row switch
	// between Merge's two folds (ROADMAP 3f).
	small := buildOpsInputs(o.seed+1, n/10)

	// The first round builds the inputs' lazy posting and pair indexes and
	// touches fresh memory; it takes five times a warm round and is noted, not
	// measured.
	for _, c := range []struct {
		in   *opsInputs
		note string
	}{{in, "first_round_s"}, {small, "first_round_s_100k"}} {
		_, t, err := checkedRound(res, c.in)
		if err != nil {
			return nil, err
		}
		res.note(c.note, "%.3f (cold: lazy indexes of the inputs, first-touch memory)", t.total())
	}

	// The measured cycles. Each does everything once — a round at 1 M rows, a
	// round at 100 k, the Best-1 output (n/4 rows) put into a fresh durable
	// store and closed, that store reopened cold — and then samples the
	// host's speed, so that every metric sees the whole run and a disturbed
	// stretch of it spoils a few repetitions of each, not all of one. A store
	// is removed as soon as it has been reopened: left behind, its dirty pages
	// make the kernel throttle the next writer.
	var def opsOutputs
	var rounds, roundsSmall []opsTimes
	var persists, colds, walBytes []float64
	for c := 0; c < cycles; c++ {
		runtime.GC()
		var t opsTimes
		var err error
		for i := 0; i < roundsPerCycle; i++ {
			if def, t, err = checkedRound(res, in); err != nil {
				return nil, err
			}
			rounds = append(rounds, t)
		}
		if _, t, err = checkedRound(res, small); err != nil {
			return nil, err
		}
		roundsSmall = append(roundsSmall, t)

		dir := filepath.Join(o.tmpDir, fmt.Sprintf("store-%d", c))
		p, wal, err := persistOnce(dir, def.bestn)
		if err != nil {
			return nil, err
		}
		persists, walBytes = append(persists, p), append(walBytes, wal)

		t0 = time.Now()
		repo, err := store.OpenRepository(dir)
		if err != nil {
			return nil, err
		}
		got, _ := repo.Get("ops.bestn")
		colds = append(colds, time.Since(t0).Seconds())
		res.Attempted++
		if f := checkReopened("ops.bestn", def.bestn, got); f != "" {
			res.Failed++
			res.fail("%s", f)
		}
		if o.trace && c == cycles-1 {
			t0 = time.Now()
			if err := repo.Compact(); err != nil {
				return nil, err
			}
			res.layer("store.compact_s", time.Since(t0).Seconds())
			if st, err := os.Stat(filepath.Join(dir, "snapshot.jsonl")); err == nil {
				res.layer("store.snapshot_bytes", float64(st.Size()))
			}
		}
		if err := repo.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := o.host.sample(); err != nil {
			return nil, err
		}
	}
	inOrder := func(xs []float64) string { return strings.Trim(fmt.Sprintf("%.3f", xs), "[]") }
	totals := func(rs []opsTimes) []float64 {
		xs := make([]float64, len(rs))
		for i, t := range rs {
			xs[i] = t.total()
		}
		return xs
	}
	res.note("round_totals_s", "%s (in run order)", inOrder(totals(rounds)))
	res.note("round_totals_s_100k", "%s (in run order)", inOrder(totals(roundsSmall)))
	res.note("persists_s", "%s (in run order)", inOrder(persists))
	res.note("cold_starts_s", "%s (in run order)", inOrder(colds))

	round, roundSmall := calmRound(rounds), calmRound(roundsSmall)
	res.e2e("ops_round_s", round.total())
	res.e2e("rows_per_s", float64(6*n)/round.total()) // rows read per round: 2n + 2n + n + n
	res.e2e("ops_round_100k_s", roundSmall.total())
	res.layer("mapping.compose_1m_s", round.compose)
	res.layer("mapping.merge_1m_s", round.merge)
	res.layer("mapping.bestn_1m_s", round.bestn)
	res.layer("mapping.threshold_1m_s", round.threshold)
	res.layer("mapping.compose_100k_s", roundSmall.compose)
	res.layer("mapping.merge_100k_s", roundSmall.merge)

	rows := float64(def.bestn.Len())
	persist, cold := calm(persists), calm(colds)
	res.e2e("persist_s", persist)
	res.e2e("cold_start_s", cold)
	res.layer("store.put_rows_per_s", rows/persist)
	res.layer("store.replay_rows_per_s", rows/cold)
	res.layer("store.wal_bytes_per_row", walBytes[0]/rows)

	// workers=1 must give the same bits in the same order.
	runtime.GC()
	seq, seqT, err := opsRound(nil, in, 1, "")
	if err != nil {
		return nil, err
	}
	failures, identical := checkIdentical(def, seq)
	res.Attempted += 3
	res.Failed += len(failures)
	res.Failures = append(res.Failures, failures...)
	res.e2e("identical_share", float64(identical)/3)
	res.layer("par.compose_speedup", seqT.compose/round.compose)
	res.layer("par.merge_speedup", seqT.merge/round.merge)
	res.layer("par.bestn_speedup", seqT.bestn/round.bestn)
	res.note("par_speedup_base", "workers=1 %.3fs/%.3fs/%.3fs over GOMAXPROCS=%d %.3fs/%.3fs/%.3fs (compose/merge/bestn); two shared cores, informative only",
		seqT.compose, seqT.merge, seqT.bestn, runtime.GOMAXPROCS(0), round.compose, round.merge, round.bestn)

	var tr *Tracer
	if o.trace {
		tr = newTracer()
		if err := probeTwice(res, tr, func(_ int, t *Tracer) (time.Duration, error) {
			opsProbes(t, res, in)
			return 0, nil
		}); err != nil {
			return nil, err
		}
	}

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.e2e("peak_rss_mb", rss)
	res.e2e("failed_share", float64(res.Failed)/float64(res.Attempted))
	mem := memSince(mem0)
	res.layer("go.alloc_mb", mem.AllocMB)
	res.layer("go.gc_pause_ms", mem.GCPauseMS)
	res.layer("go.num_gc", mem.NumGC)

	if o.trace {
		finishTrace(res, tr, o)
	}
	res.Correct = len(res.Failures) == 0
	return res, nil
}

// opsProbes is the traced section: one more round at full size at default
// workers and at workers=1, and the allocation volume of compose and merge.
func opsProbes(tr *Tracer, res *Result, in *opsInputs) {
	if _, _, err := opsRound(tr, in, 0, "_1m"); err != nil {
		panic(err) // the same call succeeded five times above
	}
	if _, _, err := opsRound(tr, in, 1, "_1m_w1"); err != nil {
		panic(err)
	}
	// Reading the collector's statistics stops the world; at quick size that
	// is comparable to an operator, so it gets spans of its own.
	var m0 runtime.MemStats
	var mem memDelta
	tr.Time("bench.memstats", func() { m0 = readMem() })
	tr.Time("mapping.compose_1m", func() {
		mustMap(mapping.Compose(in.chain1, in.chain2, mapping.MinCombiner, mapping.AggRelative))
	})
	tr.Time("bench.memstats", func() { mem = memSince(m0) })
	res.layer("mapping.compose_1m_alloc_mb", mem.AllocMB)
	tr.Time("bench.memstats", func() { m0 = readMem() })
	tr.Time("mapping.merge_1m", func() { mustMap(mapping.Merge(mapping.AvgCombiner, in.over1, in.over2)) })
	tr.Time("bench.memstats", func() { mem = memSince(m0) })
	res.layer("mapping.merge_1m_alloc_mb", mem.AllocMB)
}
