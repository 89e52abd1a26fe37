package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/store"
)

// dedupScript is the paper's §4.3 duplicate-author listing.
const dedupScript = `
$CoAuthSim = nhMatch (DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor)
$NameSim = attrMatch (DBLP.Author, DBLP.Author, Trigram, 0.5, "[name]", "[name]")
$Merged = merge ($CoAuthSim, $NameSim, Average)
$Result = select ($Merged, "[domain.id]<>[range.id]")
RETURN $Result
`

// wantDedupCSV is the result CSV of dedupScript on the world of
// TestRunDedupScript.
const wantDedupCSV = `#mapping,Author@DBLP,Author@DBLP,CoAuthor.same.CoAuthor
domain,range,sim
agathoniki,niki,0.8636363636363636
agathoniki,fan,0.8
agathoniki,wei,0.8
fan,agathoniki,0.8
fan,niki,0.8
fan,wei,0.5714285714285714
niki,agathoniki,0.8636363636363636
niki,fan,0.8
niki,wei,0.8
wei,agathoniki,0.8
wei,niki,0.8
wei,fan,0.5714285714285714
x,y,0.8571428571428571
x,z,0.6666666666666666
y,x,0.8571428571428571
y,z,0.8571428571428571
z,y,0.8571428571428571
z,x,0.6666666666666666
`

// wantNameOnlyCSV is the result CSV of dedupScript when DBLP.AuthorAuthor is
// an empty mapping: the co-author evidence is gone, the name evidence stays.
const wantNameOnlyCSV = `#mapping,Author@DBLP,Author@DBLP,CoAuthor.same.CoAuthor
domain,range,sim
agathoniki,niki,0.7272727272727273
fan,wei,0.6428571428571429
niki,agathoniki,0.7272727272727273
wei,fan,0.6428571428571429
`

// TestRunDedupScript runs the §4.3 script from files, as the command does,
// with and without -eval and with and without an identity mapping file, and
// checks the result CSV byte for byte.
func TestRunDedupScript(t *testing.T) {
	dir := t.TempDir()
	lds := model.LDS{Source: "DBLP", Type: model.Author}
	authors := model.NewObjectSet(lds)
	for _, a := range [][2]string{
		{"niki", "Niki Trigoni"}, {"agathoniki", "Agathoniki Trigoni"},
		{"fan", "Catalina Fan"}, {"wei", "Catalina Wei"},
		{"x", "Xavier Xu"}, {"y", "Yannis Young"}, {"z", "Zoe Zhang"},
	} {
		authors.AddNew(model.ID(a[0]), map[string]string{"name": a[1]})
	}
	coAuthor := mapping.New(lds, lds, "CoAuthor")
	perfect := mapping.NewSame(lds, lds)
	for _, dup := range [][2]model.ID{{"niki", "agathoniki"}, {"fan", "wei"}} {
		for _, a := range dup {
			for _, c := range []model.ID{"x", "y", "z"} {
				if a == "fan" && c == "x" || a == "wei" && c == "z" {
					continue
				}
				coAuthor.Add(a, c, 1)
				coAuthor.Add(c, a, 1)
			}
		}
		perfect.Add(dup[0], dup[1], 1)
		perfect.Add(dup[1], dup[0], 1)
	}
	write := func(name string, put func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := put(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mappingCSV := func(m *mapping.Mapping) func(*os.File) error {
		return func(f *os.File) error { return store.WriteMappingCSV(f, m) }
	}
	scriptPath := write("dedup.ifuice", func(f *os.File) error {
		_, err := f.WriteString(dedupScript)
		return err
	})
	sets := map[string]string{
		"DBLP.Author": write("authors.csv", func(f *os.File) error { return store.WriteObjectSetCSV(f, authors) }),
	}
	maps := map[string]string{
		"DBLP.CoAuthor":     write("coauthor.csv", mappingCSV(coAuthor)),
		"DBLP.AuthorAuthor": write("identity.csv", mappingCSV(mapping.Identity(authors))),
	}
	perfectPath := write("perfect.csv", mappingCSV(perfect))

	// Without a -map for it, DBLP.AuthorAuthor is the auto-bound identity of
	// DBLP.Author; an explicit -map of that name is used instead. With an
	// empty one, only the name evidence is left.
	autoIdentity := map[string]string{"DBLP.CoAuthor": maps["DBLP.CoAuthor"]}
	emptySame := map[string]string{
		"DBLP.CoAuthor":     maps["DBLP.CoAuthor"],
		"DBLP.AuthorAuthor": write("empty.csv", mappingCSV(mapping.NewSame(lds, lds))),
	}
	for _, tc := range []struct {
		name     string
		maps     map[string]string
		evalPath string
		want     string
	}{
		{"identity map", maps, "", wantDedupCSV},
		{"identity map, eval", maps, perfectPath, wantDedupCSV},
		{"auto identity", autoIdentity, "", wantDedupCSV},
		{"explicit AuthorAuthor", emptySame, "", wantNameOnlyCSV},
	} {
		out := filepath.Join(dir, "result.csv")
		if err := run(scriptPath, sets, tc.maps, out, tc.evalPath, false); err != nil {
			t.Fatalf("run (%s): %v", tc.name, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("run (%s) wrote\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
