// Command moma runs iFuice-style match scripts against CSV data.
//
// Usage:
//
//	moma -script FILE [-set NAME=objects.csv ...] [-map NAME=mapping.csv ...]
//	     [-out result.csv] [-eval perfect.csv] [-trace]
//
// Object sets and mappings are bound under the given qualified names
// (e.g. -set DBLP.Author=dblp_authors.csv -map DBLP.CoAuthor=dblp_coauthor.csv)
// and the script references them by those names; when several sets share a
// logical source, select() constraints read the one whose name sorts first.
// Each set also gets its identity mapping under the set's name followed by
// its last name part, the paper's DBLP.AuthorAuthor for -set DBLP.Author,
// unless a -map already binds that name.
// The script runs on one workflow engine, each of its mapping-valued
// expressions a step (internal/script); -trace prints each top-level
// assignment as it executes. The script's result mapping is written as CSV
// to -out (default stdout); -eval compares the result against a perfect
// mapping and prints precision/recall/F-measure.
//
// Example — the paper's §4.3 duplicate-author workflow, with dedup.ifuice
// holding
//
//	$CoAuthSim = nhMatch (DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor)
//	$NameSim = attrMatch (DBLP.Author, DBLP.Author, Trigram, 0.5, "[name]", "[name]")
//	$Merged = merge ($CoAuthSim, $NameSim, Average)
//	$Result = select ($Merged, "[domain.id]<>[range.id]")
//	RETURN $Result
//
// and DBLP.AuthorAuthor the auto-bound identity:
//
//	moma-gen -out data -scale small
//	moma -script dedup.ifuice \
//	     -set DBLP.Author=data/dblp_authors.csv \
//	     -map DBLP.CoAuthor=data/dblp_coauthor.csv \
//	     -eval data/perfect_author_dups_dblp.csv
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/eval"
	"repro/internal/mapping"
	"repro/internal/script"
	"repro/internal/store"
	"repro/internal/workflow"
)

// bindingFlag accumulates repeated NAME=FILE flags.
type bindingFlag map[string]string

func (b bindingFlag) String() string { return fmt.Sprint(map[string]string(b)) }

func (b bindingFlag) Set(v string) error {
	eq := strings.IndexByte(v, '=')
	if eq <= 0 || eq == len(v)-1 {
		return fmt.Errorf("want NAME=FILE, got %q", v)
	}
	b[v[:eq]] = v[eq+1:]
	return nil
}

func main() {
	scriptPath := flag.String("script", "", "script file to run (required)")
	out := flag.String("out", "", "write the result mapping as CSV to this file (default stdout)")
	evalPath := flag.String("eval", "", "perfect mapping CSV to evaluate the result against")
	trace := flag.Bool("trace", false, "print each script assignment as it executes")
	sets := bindingFlag{}
	mapFiles := bindingFlag{}
	flag.Var(sets, "set", "bind an object set: NAME=objects.csv (repeatable)")
	flag.Var(mapFiles, "map", "bind a mapping: NAME=mapping.csv (repeatable)")
	flag.Parse()

	if *scriptPath == "" {
		fmt.Fprintln(os.Stderr, "moma: -script FILE is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*scriptPath, sets, mapFiles, *out, *evalPath, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "moma: %v\n", err)
		os.Exit(1)
	}
}

func run(scriptPath string, sets, mapFiles map[string]string, out, evalPath string, trace bool) error {
	src, err := os.ReadFile(scriptPath)
	if err != nil {
		return err
	}
	e := workflow.NewEngine(nil)
	for _, name := range slices.Sorted(maps.Keys(mapFiles)) {
		file := mapFiles[name]
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		m, err := store.ReadMappingCSV(f)
		f.Close() //moma:errsink-ok read-only fd, contents already parsed
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		if err := e.Repo.Put(name, m); err != nil {
			return err
		}
	}
	for _, name := range slices.Sorted(maps.Keys(sets)) {
		file := sets[name]
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		set, err := store.ReadObjectSetCSV(f)
		f.Close() //moma:errsink-ok read-only fd, contents already parsed
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		if err := e.AddObjectSet(name, set); err != nil {
			return err
		}
		identity := name + name[strings.LastIndexByte(name, '.')+1:]
		if !e.Repo.Has(identity) {
			if err := e.Repo.Put(identity, mapping.Identity(set)); err != nil {
				return err
			}
		}
	}

	ip := script.New(e)
	if trace {
		ip.Trace = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	v, err := ip.RunSource(string(src))
	if err != nil {
		return err
	}
	if v.Kind != script.MappingValue {
		return fmt.Errorf("script result is %s, expected a mapping", v)
	}
	result := v.Mapping

	w := os.Stdout
	var outFile *os.File
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		outFile = f
		w = f
	}
	if err := store.WriteMappingCSV(w, result); err != nil {
		if outFile != nil {
			outFile.Close() //moma:errsink-ok error path; the write error wins
		}
		return err
	}
	// The close error matters here: the result CSV was just written through
	// OS buffers, and a failed close is the last chance to hear about it.
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return fmt.Errorf("%s: %w", out, err)
		}
	}
	if evalPath != "" {
		f, err := os.Open(evalPath)
		if err != nil {
			return err
		}
		perfect, err := store.ReadMappingCSV(f)
		f.Close() //moma:errsink-ok read-only fd, contents already parsed
		if err != nil {
			return fmt.Errorf("%s: %w", evalPath, err)
		}
		r := eval.Compare(result, perfect)
		fmt.Fprintf(os.Stderr, "moma: %s (%d correspondences vs %d perfect)\n", r, result.Len(), perfect.Len())
	}
	return nil
}
