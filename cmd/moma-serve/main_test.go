package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	moma "repro"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/sources"
	"repro/internal/store"
)

// TestRunRejectsBadConfigBeforeListening: each bad setting fails run with
// its own error before the server listens. The address cannot be bound, so
// a run that got as far as listening would fail with a different error.
func TestRunRejectsBadConfigBeforeListening(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config
		want string
	}{
		{"scale", config{scale: "huge", measure: "trigram"}, `unknown scale "huge"`},
		{"measure", config{scale: "small", measure: "cosine"}, `unknown measure "cosine"`},
		{"fault-script", config{scale: "small", measure: "trigram", faultScript: "write:wal.jsonl:0:enospc"},
			"-fault-script requires -store"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.addr = "127.0.0.1:-1"
			err := run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestLoadCSVWorld writes a small world with the store's CSV writers and
// loads it back: every object set under "<Source>.<Type>", every mapping
// under its file stem.
func TestLoadCSVWorld(t *testing.T) {
	d := sources.Generate(sources.SmallConfig())
	dir := t.TempDir()
	sets := map[string]*model.ObjectSet{}
	maps := map[string]*mapping.Mapping{"perfect_pub_dblp_acm": d.Perfect.PubDBLPACM}
	for _, src := range []*sources.Source{d.DBLP, d.ACM, d.GS} {
		low := strings.ToLower(string(src.Name))
		sets[low+"_publications"] = src.Pubs
		sets[low+"_authors"] = src.Authors
		maps[low+"_authorpub"] = src.AuthorPub
	}
	for name, set := range sets {
		var buf bytes.Buffer
		if err := store.WriteObjectSetCSV(&buf, set); err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dir, name+".csv"), buf.Bytes())
	}
	for name, m := range maps {
		var buf bytes.Buffer
		if err := store.WriteMappingCSV(&buf, m); err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dir, name+".csv"), buf.Bytes())
	}
	// Files without the .csv suffix are not read.
	writeFile(t, filepath.Join(dir, "README"), []byte("not a world file"))

	sys := moma.NewSystem()
	if err := loadCSVWorld(sys, dir); err != nil {
		t.Fatal(err)
	}
	for _, set := range sets {
		name := string(set.LDS().Source) + "." + string(set.LDS().Type)
		got, ok := sys.ObjectSetByName(name)
		if !ok {
			t.Errorf("set %s not registered", name)
			continue
		}
		if !reflect.DeepEqual(got.IDs(), set.IDs()) {
			t.Errorf("set %s: ids differ from the written set", name)
		}
	}
	for stem, m := range maps {
		got, ok := sys.MappingByName(stem)
		if !ok {
			t.Errorf("mapping %s not registered", stem)
			continue
		}
		if !reflect.DeepEqual(got.Sorted(), m.Sorted()) {
			t.Errorf("mapping %s: rows differ from the written mapping", stem)
		}
	}

	// A file is decoded by the reader its metadata row names, so a broken
	// object set reports its own fault; only a file naming neither format
	// gets both readers' errors.
	for _, tc := range []struct{ file, data, want string }{
		{"junk.csv", "hello,world\n1,2\n", "junk.csv: neither object set (store: objects csv: bad metadata row [hello world]) nor mapping (store: mapping csv: bad metadata row [hello world])"},
		{"pubs.csv", "#objects,Publication@DBLP\nid,title\n,untitled\n", "pubs.csv: store: objects csv line 3: empty id"},
		{"same.csv", "#mapping,Publication@DBLP,Publication@ACM,same\ndomain,range,sim\na,b,high\n", `same.csv: store: mapping csv line 3: bad sim "high"`},
	} {
		bad := t.TempDir()
		writeFile(t, filepath.Join(bad, tc.file), []byte(tc.data))
		if err := loadCSVWorld(moma.NewSystem(), bad); err == nil || err.Error() != tc.want {
			t.Errorf("loadCSVWorld(%s) = %v, want %s", tc.file, err, tc.want)
		}
	}
}

func TestPickSets(t *testing.T) {
	d := sources.Generate(sources.SmallConfig())
	sys := moma.NewSystem()
	for _, src := range []*sources.Source{d.DBLP, d.ACM} {
		if err := sys.LoadSource(src); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := pickSets(sys, ""), []string{"DBLP.Publication", "ACM.Publication"}; !reflect.DeepEqual(got, want) {
		t.Errorf("pickSets(\"\") = %q, want %q", got, want)
	}
	if got, want := pickSets(sys, " a , ,b"), []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("pickSets(\" a , ,b\") = %q, want %q", got, want)
	}
}

func TestDetectTitleAttr(t *testing.T) {
	d := sources.Generate(sources.SmallConfig())
	if got := detectTitleAttr(d.ACM.Pubs); got != "name" {
		t.Errorf("ACM publications: %q, want name", got)
	}
	if got := detectTitleAttr(d.DBLP.Pubs); got != "title" {
		t.Errorf("DBLP publications: %q, want title", got)
	}
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
