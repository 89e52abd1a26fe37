// Command moma-gen emits the synthetic bibliographic world as CSV files —
// object sets, association mappings and perfect mappings — so the datasets
// can be inspected, versioned, or fed to cmd/moma.
//
// Usage:
//
//	moma-gen -out DIR [-scale paper|small] [-seed N]
//
// The output directory receives one CSV per object set
// (dblp_publications.csv, acm_authors.csv, ...), per association mapping
// (dblp_venuepub.csv, ...) and per perfect mapping
// (perfect_pub_dblp_acm.csv, ...).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/sources"
	"repro/internal/store"
)

func main() {
	out := flag.String("out", "", "output directory (required)")
	scale := flag.String("scale", "small", "dataset scale: paper or small")
	seed := flag.Int64("seed", 0, "override the dataset seed (0 keeps the default)")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "moma-gen: -out DIR is required")
		os.Exit(2)
	}
	var cfg sources.Config
	switch *scale {
	case "paper":
		cfg = sources.PaperConfig()
	case "small":
		cfg = sources.SmallConfig()
	default:
		fmt.Fprintf(os.Stderr, "moma-gen: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if err := run(cfg, *out); err != nil {
		fmt.Fprintf(os.Stderr, "moma-gen: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg sources.Config, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	d := sources.Generate(cfg)

	writeSet := func(name string, set *model.ObjectSet) error {
		if set == nil {
			return nil
		}
		return writeFile(filepath.Join(out, name+".csv"), func(f *os.File) error {
			return store.WriteObjectSetCSV(f, set)
		})
	}
	writeMap := func(name string, m *mapping.Mapping) error {
		if m == nil {
			return nil
		}
		return writeFile(filepath.Join(out, name+".csv"), func(f *os.File) error {
			return store.WriteMappingCSV(f, m)
		})
	}

	for _, src := range []*sources.Source{d.DBLP, d.ACM, d.GS} {
		low := strings.ToLower(string(src.Name))
		if err := writeSet(low+"_publications", src.Pubs); err != nil {
			return err
		}
		if err := writeSet(low+"_authors", src.Authors); err != nil {
			return err
		}
		if err := writeSet(low+"_venues", src.Venues); err != nil {
			return err
		}
		if err := writeMap(low+"_venuepub", src.VenuePub); err != nil {
			return err
		}
		if err := writeMap(low+"_pubvenue", src.PubVenue); err != nil {
			return err
		}
		if err := writeMap(low+"_authorpub", src.AuthorPub); err != nil {
			return err
		}
		if err := writeMap(low+"_pubauthor", src.PubAuthor); err != nil {
			return err
		}
		if err := writeMap(low+"_coauthor", src.CoAuthor); err != nil {
			return err
		}
	}
	perfects := map[string]*mapping.Mapping{
		"perfect_pub_dblp_acm":     d.Perfect.PubDBLPACM,
		"perfect_pub_dblp_gs":      d.Perfect.PubDBLPGS,
		"perfect_pub_gs_acm":       d.Perfect.PubGSACM,
		"perfect_venue_dblp_acm":   d.Perfect.VenueDBLPACM,
		"perfect_author_dblp_acm":  d.Perfect.AuthorDBLPACM,
		"perfect_author_dups_dblp": d.Perfect.AuthorDupsDBLP,
		"gs_acm_links":             d.GSLinksACM,
	}
	for name, m := range perfects {
		if err := writeMap(name, m); err != nil {
			return err
		}
	}
	fmt.Printf("moma-gen: wrote dataset (DBLP %d pubs, ACM %d, GS %d) to %s\n",
		d.DBLP.Pubs.Len(), d.ACM.Pubs.Len(), d.GS.Pubs.Len(), out)
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close() //moma:errsink-ok error path; the write error wins
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
