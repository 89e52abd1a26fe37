package store

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
)

func TestMappingCSVRoundTrip(t *testing.T) {
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("conf/VLDB/MadhavanBR01", "P-672191", 1)
	m.Add("conf/VLDB/ChirkovaHS01", "P-672216", 1)
	m.Add("title,with,commas", "quote\"id", 0.123456789)

	var buf bytes.Buffer
	if err := WriteMappingCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMappingCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m, 1e-15) {
		t.Errorf("round trip differs:\n%s\nvs\n%s", got, m)
	}
}

func TestMappingCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"not,a,mapping\n",
		"#mapping,BadLDS,Publication@ACM,same\ndomain,range,sim\n",
		"#mapping,Publication@DBLP,BadLDS,same\ndomain,range,sim\n",
		"#mapping,Publication@DBLP,Publication@ACM,same\nbad,header,row\n",
		"#mapping,Publication@DBLP,Publication@ACM,same\ndomain,range,sim\na,b,notanumber\n",
		"#mapping,Publication@DBLP,Publication@ACM,same\ndomain,range,sim\na,b,1\nc,d,NaN\n",
		"#mapping,Publication@DBLP,Publication@ACM,same\ndomain,range,sim\n\"a\r\r\nb\",c,1\n",
		"#mapping,Publication@DBLP,Publication@ACM,same\ndomain,range,sim\n\"a\r\nb\",c,1\n",
		"#mapping,Publication@DBLP,Publication@ACM,same\ndomain,range,sim\na,b\n",
		"#mapping,Publication@DBLP,Publication@ACM,same\n",
	}
	for i, in := range cases {
		if _, err := ReadMappingCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d should fail: %q", i, in)
		}
	}
	// A NaN sim would pass clamping and make a durable store's Put fail to
	// encode it; the reader names the line instead.
	_, err := ReadMappingCSV(strings.NewReader("#mapping,Publication@DBLP,Publication@ACM,same\ndomain,range,sim\na,b,1\nc,d,NaN\n"))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("NaN sim: %v, want an error naming line 4", err)
	}
	// encoding/csv reads a quoted \r\n as \n, so the id would not write back
	// as it was read; the reader names the line, as the object-set reader does.
	_, err = ReadMappingCSV(strings.NewReader("#mapping,Publication@DBLP,Publication@ACM,same\ndomain,range,sim\n\"a\r\nb\",c,1\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3: a quoted value holds a carriage return and line feed") {
		t.Errorf("quoted CRLF in an id: %v, want an error naming line 3", err)
	}
}

func TestObjectSetCSVRoundTrip(t *testing.T) {
	set := model.NewObjectSet(dblpPub)
	set.AddNew("p1", map[string]string{"title": "A, B and \"C\"", "year": "2001"})
	set.AddNew("p2", map[string]string{"title": "Another"})
	set.AddNew("p3", nil)

	var buf bytes.Buffer
	if err := WriteObjectSetCSV(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err := ReadObjectSetCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.LDS() != set.LDS() || got.Len() != set.Len() {
		t.Fatalf("round trip shape differs: %v, %d", got.LDS(), got.Len())
	}
	if got.Get("p1").Attr("title") != "A, B and \"C\"" || got.Get("p1").Attr("year") != "2001" {
		t.Errorf("p1 attrs = %v", got.Get("p1"))
	}
	// p2 has no year column value: must come back absent, not empty-set.
	if got.Get("p2").HasAttr("year") {
		t.Error("empty CSV cell should not create an attribute")
	}
}

func TestObjectSetCSVErrors(t *testing.T) {
	const meta = "#objects,Publication@DBLP\n"
	cases := []struct{ in, want string }{
		{"", ""},
		{"wrong,meta\n", ""},
		{"#objects,BadLDS\nid\n", ""},
		{meta + "notid,title\n", ""},
		{meta, ""},
		{meta + "id,title\np1\n", ""},
		{meta + "id,title,title\np1,a,b\n", `column 3 repeats "title"`},
		{meta + "id,title,id\np1,a,p1\n", `column 3 repeats "id"`},
		{meta + "id,title\n,untitled\n", "line 3: empty id"},
		{meta + "id,title\np1,a\np2,\"two\r\nlines\"\n", "line 4: a quoted value"},
		{meta + "id,title\n\"p\r\r\n1\",a\n", "line 3: a quoted value"},
		{meta + "id,\"ti\r\ntle\"\np1,a\n", "bad header"},
	}
	for _, tc := range cases {
		_, err := ReadObjectSetCSV(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want one naming %q", tc.in, err, tc.want)
		}
	}
	// CRLF line endings and blank lines are not values: they read as usual.
	set, err := ReadObjectSetCSV(strings.NewReader("#objects,Publication@DBLP\r\nid,title\r\n\r\np1,\"two\nlines\"\r\n"))
	if err != nil || set.Len() != 1 || set.Get("p1").Attr("title") != "two\nlines" {
		t.Fatalf("CRLF file: %v, %v", set, err)
	}
}

func TestMappingCSVDeterministicOutput(t *testing.T) {
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("b", "y", 0.5)
	m.Add("a", "x", 0.9)
	var buf1, buf2 bytes.Buffer
	WriteMappingCSV(&buf1, m)
	WriteMappingCSV(&buf2, m.Clone())
	if buf1.String() != buf2.String() {
		t.Error("CSV output must be deterministic")
	}
	lines := strings.Split(strings.TrimSpace(buf1.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasPrefix(lines[2], "a,") {
		t.Errorf("rows must be sorted, got %q first", lines[2])
	}
}

// FuzzReadMappingCSV feeds arbitrary bytes to the mapping CSV reader, which
// serves files from outside the program. Properties: the reader returns an
// error or a mapping whose similarities all lie in [0,1], and that mapping,
// written by WriteMappingCSV and read back, is Equal to it at eps 0.
func FuzzReadMappingCSV(f *testing.F) {
	var buf bytes.Buffer
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("conf/VLDB/MadhavanBR01", "P-672191", 1)
	m.Add("title,with,commas", "quote\"id", 0.123456789)
	m.Add(" lead", "multi\nline", 0.5)
	if err := WriteMappingCSV(&buf, m); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	for _, rows := range []string{"a,b,NaN\n", "a,b,-Inf\nc,d,+Inf\n", "a,b,1e400\n", "a,b,0x1p-2\n", "a,b,1\na,b,0.25\n", "a,b\n", "\"a\r\r\nb\",c,1\n", "\"a\r\nb\",c,1\n"} {
		f.Add("#mapping,Publication@DBLP,Publication@ACM,same\ndomain,range,sim\n" + rows)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, err := ReadMappingCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		got.EachOrd(func(_, _ uint32, s float64) bool {
			if !(s >= 0 && s <= 1) {
				t.Fatalf("similarity %v outside [0,1] from %q", s, in)
			}
			return true
		})
		var out bytes.Buffer
		if err := WriteMappingCSV(&out, got); err != nil {
			t.Fatalf("writing a mapping the reader accepted: %v", err)
		}
		back, err := ReadMappingCSV(&out)
		if err != nil {
			t.Fatalf("reading back %q: %v", out.String(), err)
		}
		if !back.Equal(got, 0) {
			t.Fatalf("round trip of %q changed the mapping:\n%s\nvs\n%s", in, back, got)
		}
	})
}

// FuzzReadObjectSetCSV feeds arbitrary bytes to the object-set CSV reader,
// which loads every served and matched set from outside the program. The
// reader returns an error or a set that WriteObjectSetCSV writes and the
// reader reads back with the same ids, in the same order, with the same
// attributes.
func FuzzReadObjectSetCSV(f *testing.F) {
	set := model.NewObjectSet(dblpPub)
	set.AddNew("conf/VLDB/MadhavanBR01", map[string]string{"title": "Generic Schema Matching, with \"Cupid\"", "year": "2001"})
	set.AddNew(" lead", map[string]string{"title": "multi\nline"})
	set.AddNew("p3", nil)
	var buf bytes.Buffer
	if err := WriteObjectSetCSV(&buf, set); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	for _, rows := range []string{"id,title,title\np1,a,b\n", "id,title\n,a\n", "id,title\np1,\"a\r\nb\"\n", "id\r\n\r\np1\r\n", "id,title\np1,a\np1,b\n", "id,\np1,x\n"} {
		f.Add("#objects,Publication@DBLP\n" + rows)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, err := ReadObjectSetCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteObjectSetCSV(&out, got); err != nil {
			t.Fatalf("writing a set the reader accepted: %v", err)
		}
		back, err := ReadObjectSetCSV(&out)
		if err != nil {
			t.Fatalf("reading back %q: %v", out.String(), err)
		}
		if !slices.Equal(back.IDs(), got.IDs()) {
			t.Fatalf("round trip of %q changed the ids: %q vs %q", in, back.IDs(), got.IDs())
		}
		got.Each(func(in *model.Instance) bool {
			if b := back.Get(in.ID); !maps.Equal(b.Attrs, in.Attrs) {
				t.Fatalf("round trip changed %q: %q vs %q", in.ID, b.Attrs, in.Attrs)
			}
			return true
		})
	})
}
