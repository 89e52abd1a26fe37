package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/sources"
	"repro/internal/store"
)

// TestRunWritesWorld runs the command on a small world twice with one seed.
// Every file must read back as what sources.Generate built, no other file may
// appear, and the two runs must write identical bytes.
func TestRunWritesWorld(t *testing.T) {
	cfg := sources.SmallConfig()
	cfg.Seed = 5
	d := sources.Generate(cfg)
	type setFile struct {
		name string
		set  *model.ObjectSet
	}
	type mapFile struct {
		name string
		m    *mapping.Mapping
	}
	var sets []setFile
	maps := []mapFile{
		{"perfect_pub_dblp_acm", d.Perfect.PubDBLPACM},
		{"perfect_pub_dblp_gs", d.Perfect.PubDBLPGS},
		{"perfect_pub_gs_acm", d.Perfect.PubGSACM},
		{"perfect_venue_dblp_acm", d.Perfect.VenueDBLPACM},
		{"perfect_author_dblp_acm", d.Perfect.AuthorDBLPACM},
		{"perfect_author_dups_dblp", d.Perfect.AuthorDupsDBLP},
		{"gs_acm_links", d.GSLinksACM},
	}
	for _, src := range []*sources.Source{d.DBLP, d.ACM, d.GS} {
		low := strings.ToLower(string(src.Name))
		sets = append(sets,
			setFile{low + "_publications", src.Pubs},
			setFile{low + "_authors", src.Authors},
			setFile{low + "_venues", src.Venues})
		maps = append(maps,
			mapFile{low + "_venuepub", src.VenuePub},
			mapFile{low + "_pubvenue", src.PubVenue},
			mapFile{low + "_authorpub", src.AuthorPub},
			mapFile{low + "_pubauthor", src.PubAuthor},
			mapFile{low + "_coauthor", src.CoAuthor})
	}

	dirs := []string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		if err := run(cfg, dir); err != nil {
			t.Fatal(err)
		}
	}
	open := func(name string) *os.File {
		f, err := os.Open(filepath.Join(dirs[0], name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() }) //moma:errsink-ok read-only file
		return f
	}
	var want []string
	for _, sf := range sets {
		if sf.set == nil {
			continue
		}
		want = append(want, sf.name+".csv")
		got, err := store.ReadObjectSetCSV(open(sf.name))
		if err != nil {
			t.Fatalf("%s: %v", sf.name, err)
		}
		if msg := sameSet(got, sf.set); msg != "" {
			t.Errorf("%s: %s", sf.name, msg)
		}
	}
	for _, mf := range maps {
		if mf.m == nil {
			continue
		}
		want = append(want, mf.name+".csv")
		got, err := store.ReadMappingCSV(open(mf.name))
		if err != nil {
			t.Fatalf("%s: %v", mf.name, err)
		}
		if got.Domain() != mf.m.Domain() || got.Range() != mf.m.Range() || got.Type() != mf.m.Type() ||
			!reflect.DeepEqual(got.Sorted(), mf.m.Sorted()) {
			t.Errorf("%s: read back %s, generated %s", mf.name, got, mf.m)
		}
	}

	slices.Sort(want)
	entries, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, want) {
		t.Errorf("wrote %v, want %v", names, want)
	}
	for _, name := range names {
		first, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		second, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s differs between two runs with one seed", name)
		}
	}
}

// sameSet describes how got differs from want, or returns "" when both hold
// the same instances in the same order. The CSV has no way to tell a missing
// attribute from an empty one, so values are compared through Attr.
func sameSet(got, want *model.ObjectSet) string {
	if got.LDS() != want.LDS() || !slices.Equal(got.IDs(), want.IDs()) {
		return "different LDS or ids"
	}
	for i := range want.Len() {
		g, w := got.At(i), want.At(i)
		for _, attrs := range []map[string]string{g.Attrs, w.Attrs} {
			for k := range attrs {
				if g.Attr(k) != w.Attr(k) {
					return string(w.ID) + "." + k + ": read back " + g.Attr(k) + ", generated " + w.Attr(k)
				}
			}
		}
	}
	return ""
}
