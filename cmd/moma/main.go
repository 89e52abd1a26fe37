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
// The script's result mapping is written as CSV to -out (default stdout);
// -eval compares the result against a perfect mapping and prints
// precision/recall/F-measure.
//
// Example — the paper's §4.3 duplicate-author workflow:
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
	"os"
	"sort"
	"strings"

	"repro/internal/eval"
	"repro/internal/mapping"
	"repro/internal/script"
	"repro/internal/store"
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
	maps := bindingFlag{}
	flag.Var(sets, "set", "bind an object set: NAME=objects.csv (repeatable)")
	flag.Var(maps, "map", "bind a mapping: NAME=mapping.csv (repeatable)")
	flag.Parse()

	if *scriptPath == "" {
		fmt.Fprintln(os.Stderr, "moma: -script FILE is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*scriptPath, sets, maps, *out, *evalPath, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "moma: %v\n", err)
		os.Exit(1)
	}
}

func run(scriptPath string, sets, maps map[string]string, out, evalPath string, trace bool) error {
	src, err := os.ReadFile(scriptPath)
	if err != nil {
		return err
	}
	binding := script.NewBinding()
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
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
		binding.BindSet(name, set)
	}
	for name, file := range maps {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		m, err := store.ReadMappingCSV(f)
		f.Close() //moma:errsink-ok read-only fd, contents already parsed
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		binding.BindMapping(name, m)
	}
	// Auto-provide identity mappings <Set>.<Name>Identity for every bound
	// set, so single-source workflows need no extra files.
	for name, set := range binding.Sets {
		binding.BindMapping(name+"Identity", mapping.Identity(set))
	}

	ip := script.New(binding)
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
