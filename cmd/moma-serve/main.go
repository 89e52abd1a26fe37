// Command moma-serve runs MOMA's online resolution subsystem as an HTTP
// JSON service: it loads a world (a moma-gen CSV directory or an in-process
// synthetic dataset), registers a live resolver per publication set, and
// serves resolve / add / remove / mapping / health / metrics endpoints with
// graceful shutdown. See cmd/moma-serve/README.md for the API.
//
// The serving layer is hardened for overload and storage failure: admitted
// concurrency is capped (-max-inflight, excess shed with 429), requests
// carry deadlines (-request-timeout) and body caps (-max-body), shutdown
// drains gracefully (-drain-timeout), and /readyz reports whether the
// server should receive traffic — distinct from /healthz liveness. With
// -store the delta repository is durable (WAL + snapshots) and survives
// restarts; -fault-script arms the store's fault injector for chaos drills.
//
// Usage:
//
//	moma-serve [-addr :8080] [-scale small|paper | -data DIR] [flags]
//
// Examples:
//
//	moma-serve -scale small
//	moma-serve -data /tmp/world -addr 127.0.0.1:8080 -threshold 0.85
//	moma-serve -store /var/lib/moma -max-inflight 128
//	moma-serve -store /tmp/moma -fault-script 'write:wal.jsonl:6:enospc!'
//	curl -s localhost:8080/readyz
//	curl -s -X POST localhost:8080/sets/ACM.Publication/resolve \
//	  -d '{"attrs":{"title":"generic schema matching with cupid"}}'
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	moma "repro"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sources"
	"repro/internal/store"
)

// config carries the parsed flags into run.
type config struct {
	addr        string
	data        string
	scale       string
	seed        int64
	sets        string
	queryAttr   string
	setAttr     string
	minShared   int
	threshold   float64
	measure     string
	storeDir    string
	faultScript string
	opts        serve.Options
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.data, "data", "", "load object sets from a moma-gen CSV directory instead of generating")
	flag.StringVar(&cfg.scale, "scale", "small", "generated dataset scale: paper or small (ignored with -data)")
	flag.Int64Var(&cfg.seed, "seed", 0, "override the dataset seed (0 keeps the default)")
	flag.StringVar(&cfg.sets, "sets", "", "comma-separated set names to serve (default: every publication set)")
	flag.StringVar(&cfg.queryAttr, "query-attr", "title", "query attribute read from resolve requests")
	flag.StringVar(&cfg.setAttr, "set-attr", "", "set attribute matched against (default: title, falling back to name)")
	flag.IntVar(&cfg.minShared, "min-shared", 2, "blocking: minimum shared tokens between query and candidate")
	flag.Float64Var(&cfg.threshold, "threshold", 0.8, "minimum similarity of returned matches")
	flag.StringVar(&cfg.measure, "measure", "trigram", "similarity measure: trigram or tfidf")
	flag.StringVar(&cfg.storeDir, "store", "", "durable delta-repository directory (WAL + snapshots); empty keeps deltas in memory")
	flag.StringVar(&cfg.faultScript, "fault-script", "", "arm the store fault injector (requires -store); format: op:path:after:kind[:n],... — see internal/faultfs")
	flag.IntVar(&cfg.opts.MaxInFlight, "max-inflight", serve.DefaultMaxInFlight, "concurrent API requests admitted before shedding with 429")
	flag.DurationVar(&cfg.opts.RequestTimeout, "request-timeout", serve.DefaultRequestTimeout, "per-request deadline")
	flag.Int64Var(&cfg.opts.MaxBodyBytes, "max-body", serve.DefaultMaxBodyBytes, "request body cap in bytes (413 beyond)")
	flag.DurationVar(&cfg.opts.DrainTimeout, "drain-timeout", serve.DefaultDrainTimeout, "bound on the graceful drain after SIGINT/SIGTERM")
	slowQuery := flag.Duration("slow-query", 0, "capture resolves at or above this latency into GET /debug/slow (0 disables)")
	flag.Parse()
	cfg.opts.Logf = func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}

	if *slowQuery > 0 {
		obs.SetSlowThreshold(*slowQuery)
		fmt.Printf("moma-serve: capturing resolves >= %v into /debug/slow\n", *slowQuery)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "moma-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	sys, inj, err := openSystem(cfg)
	if err != nil {
		return err
	}
	defer func() {
		sys.Close() //moma:errsink-ok shutdown path, flush failure already degraded the store
		if inj != nil {
			if fired := inj.Fired(); len(fired) > 0 {
				fmt.Printf("moma-serve: %d injected fault(s) fired:\n", len(fired))
				for _, line := range fired {
					fmt.Printf("  %s\n", line)
				}
			}
		}
	}()
	if cfg.data != "" {
		if err := loadCSVWorld(sys, cfg.data); err != nil {
			return err
		}
	} else {
		var gen sources.Config
		switch cfg.scale {
		case "paper":
			gen = sources.PaperConfig()
		case "small":
			gen = sources.SmallConfig()
		default:
			return fmt.Errorf("unknown scale %q (want paper or small)", cfg.scale)
		}
		if cfg.seed != 0 {
			gen.Seed = cfg.seed
		}
		fmt.Printf("moma-serve: generating %s-scale dataset (seed %d)...\n", cfg.scale, gen.Seed)
		d := sources.Generate(gen)
		for _, src := range []*sources.Source{d.DBLP, d.ACM, d.GS} {
			if err := sys.LoadSource(src); err != nil {
				return err
			}
		}
	}

	names := pickSets(sys, cfg.sets)
	if len(names) == 0 {
		return fmt.Errorf("no servable sets found")
	}
	for _, name := range names {
		set, ok := sys.ObjectSetByName(name)
		if !ok {
			return fmt.Errorf("unknown set %q", name)
		}
		attr := cfg.setAttr
		if attr == "" {
			attr = detectTitleAttr(set)
		}
		col := moma.LiveColumn{QueryAttr: cfg.queryAttr, SetAttr: attr}
		switch cfg.measure {
		case "trigram":
			col.Sim = moma.Trigram
		case "tfidf":
			col.TFIDF = true
		default:
			return fmt.Errorf("unknown measure %q (want trigram or tfidf)", cfg.measure)
		}
		r, err := sys.RegisterResolver(name, moma.LiveConfig{
			MinShared: cfg.minShared,
			Threshold: cfg.threshold,
			Columns:   []moma.LiveColumn{col},
		})
		if err != nil {
			return err
		}
		st := r.Stats()
		fmt.Printf("moma-serve: resolver %s ready (%d instances, %d index terms, %s~%s %s)\n",
			name, st.Live, st.IndexTerms, cfg.queryAttr, attr, cfg.measure)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("moma-serve: admission cap %d, request timeout %v, body cap %d B, drain timeout %v\n",
		cfg.opts.MaxInFlight, cfg.opts.RequestTimeout, cfg.opts.MaxBodyBytes, cfg.opts.DrainTimeout)
	fmt.Printf("moma-serve: listening on %s (SIGINT/SIGTERM for graceful shutdown)\n", cfg.addr)
	if err := serve.NewWithOptions(sys, cfg.opts).Run(ctx, cfg.addr); err != nil {
		return err
	}
	fmt.Println("moma-serve: shut down cleanly")
	return nil
}

// openSystem builds the system over the configured repository: in-memory by
// default, a durable WAL-backed store with -store, optionally behind the
// fault injector with -fault-script. The injector is returned so the
// shutdown path can report which faults fired.
func openSystem(cfg config) (*moma.System, *faultfs.Injector, error) {
	if cfg.storeDir == "" {
		if cfg.faultScript != "" {
			return nil, nil, fmt.Errorf("-fault-script requires -store (it injects into the store filesystem)")
		}
		return moma.NewSystem(), nil, nil
	}
	var fsys faultfs.FS = faultfs.OS{}
	var inj *faultfs.Injector
	if cfg.faultScript != "" {
		rules, err := faultfs.ParseScript(cfg.faultScript)
		if err != nil {
			return nil, nil, fmt.Errorf("-fault-script: %w", err)
		}
		inj = faultfs.NewInjector(nil)
		inj.Inject(rules...)
		fsys = inj
		fmt.Printf("moma-serve: fault injection armed: %s\n", cfg.faultScript)
	}
	repo, err := store.OpenRepositoryFS(cfg.storeDir, fsys)
	if err != nil {
		return nil, nil, fmt.Errorf("open repository %s: %w", cfg.storeDir, err)
	}
	fmt.Printf("moma-serve: durable repository open at %s (%d persisted mappings)\n",
		cfg.storeDir, repo.Len())
	return moma.NewSystemWithRepository(repo), inj, nil
}

// pickSets resolves the -sets flag; empty means every registered
// publication set.
func pickSets(sys *moma.System, flagVal string) []string {
	if flagVal != "" {
		var out []string
		for _, n := range strings.Split(flagVal, ",") {
			if n = strings.TrimSpace(n); n != "" {
				out = append(out, n)
			}
		}
		return out
	}
	var out []string
	for _, suffix := range []string{string(moma.Publication)} {
		for _, src := range []string{"DBLP", "ACM", "GS"} {
			name := src + "." + suffix
			if _, ok := sys.ObjectSetByName(name); ok {
				out = append(out, name)
			}
		}
	}
	return out
}

// detectTitleAttr picks the title-bearing attribute of a set: DBLP and GS
// publications use "title", ACM uses "name".
func detectTitleAttr(set *moma.ObjectSet) string {
	if set.Len() > 0 && !set.HasAttr(0, "title") && set.HasAttr(0, "name") {
		return "name" // the first instance decides
	}
	return "title"
}

// loadCSVWorld registers every object-set CSV of a moma-gen output
// directory under "<Source>.<Type>" and every mapping CSV under its file
// stem. Each file is read once and decoded by the reader its metadata row
// names (#objects or #mapping); a file naming neither fails with both
// readers' errors.
func loadCSVWorld(sys *moma.System, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	nSets, nMaps := 0, 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		switch csvTag(data) {
		case "#objects":
			set, err := moma.ReadObjectSetCSV(bytes.NewReader(data))
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name(), err)
			}
			name := string(set.LDS().Source) + "." + string(set.LDS().Type)
			if err := sys.AddObjectSet(name, set); err != nil {
				return fmt.Errorf("%s: %w", e.Name(), err)
			}
			nSets++
		case "#mapping":
			m, err := moma.ReadMappingCSV(bytes.NewReader(data))
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name(), err)
			}
			if err := sys.AddMapping(strings.TrimSuffix(e.Name(), ".csv"), m); err != nil {
				return fmt.Errorf("%s: %w", e.Name(), err)
			}
			nMaps++
		default:
			_, serr := moma.ReadObjectSetCSV(bytes.NewReader(data))
			_, merr := moma.ReadMappingCSV(bytes.NewReader(data))
			return fmt.Errorf("%s: neither object set (%v) nor mapping (%v)", e.Name(), serr, merr)
		}
	}
	fmt.Printf("moma-serve: loaded %d object sets and %d mappings from %s\n", nSets, nMaps, dir)
	return nil
}

// csvTag returns the first field of a world file's metadata row, or "" when
// that row does not parse.
func csvTag(data []byte) string {
	row, err := csv.NewReader(bytes.NewReader(data)).Read()
	if err != nil {
		return ""
	}
	return row[0]
}
