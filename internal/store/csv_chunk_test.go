package store

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"maps"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/par"
)

// refReadObjectSetCSV is the serial object-set reader the chunked decoder
// replaced, kept as the oracle of FuzzChunkedCSVMatchesSerial: one record
// loop, one AddNew per row.
func refReadObjectSetCSV(r io.Reader) (*model.ObjectSet, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: objects csv: %w", err)
	}
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	var end int64
	read := func() ([]string, bool, error) {
		rec, err := cr.Read()
		start := end
		end = cr.InputOffset()
		return rec, bytes.Contains(bytes.Trim(data[start:end], "\r\n"), []byte("\r\n")), err
	}
	meta, _, err := read()
	if err != nil {
		return nil, fmt.Errorf("store: objects csv: %w", err)
	}
	if len(meta) != 2 || meta[0] != "#objects" {
		return nil, fmt.Errorf("store: objects csv: bad metadata row %v", meta)
	}
	lds, err := model.ParseLDS(meta[1])
	if err != nil {
		return nil, fmt.Errorf("store: objects csv: %w", err)
	}
	header, crlf, err := read()
	if err != nil {
		return nil, fmt.Errorf("store: objects csv: missing header: %w", err)
	}
	if len(header) < 1 || header[0] != "id" || crlf {
		return nil, fmt.Errorf("store: objects csv: bad header %q", header)
	}
	for i, name := range header {
		if slices.Contains(header[:i], name) {
			return nil, fmt.Errorf("store: objects csv: column %d repeats %q", i+1, name)
		}
	}
	set := model.NewObjectSet(lds)
	line := 2
	for {
		rec, crlf, err := read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("store: objects csv: %w", err)
		}
		line++
		switch {
		case len(rec) != len(header):
			return nil, fmt.Errorf("store: objects csv line %d: want %d fields, got %d", line, len(header), len(rec))
		case rec[0] == "":
			return nil, fmt.Errorf("store: objects csv line %d: empty id", line)
		case crlf:
			return nil, fmt.Errorf("store: objects csv line %d: a quoted value holds a carriage return and line feed", line)
		}
		attrs := make(map[string]string, len(header)-1)
		for i := 1; i < len(header); i++ {
			if rec[i] != "" {
				attrs[header[i]] = rec[i]
			}
		}
		set.AddNew(model.ID(rec[0]), attrs)
	}
	return set, nil
}

// refReadMappingCSV is the serial mapping reader the chunked decoder
// replaced, one Add per row, with one change: a quoted \r\n anywhere in a
// row's raw bytes is a fault, checked after the sim as the object-set
// reader checks it after the id. The replaced reader looked only for a
// decoded \r\n in an id, so it read "a\r\nb" (which decodes to "a\nb")
// without a word.
func refReadMappingCSV(r io.Reader) (*mapping.Mapping, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: mapping csv: %w", err)
	}
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	meta, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("store: mapping csv: %w", err)
	}
	if len(meta) != 4 || meta[0] != "#mapping" {
		return nil, fmt.Errorf("store: mapping csv: bad metadata row %v", meta)
	}
	dom, err := model.ParseLDS(meta[1])
	if err != nil {
		return nil, fmt.Errorf("store: mapping csv: %w", err)
	}
	rng, err := model.ParseLDS(meta[2])
	if err != nil {
		return nil, fmt.Errorf("store: mapping csv: %w", err)
	}
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("store: mapping csv: missing header: %w", err)
	}
	if len(header) != 3 || header[0] != "domain" || header[1] != "range" || header[2] != "sim" {
		return nil, fmt.Errorf("store: mapping csv: bad header %v", header)
	}
	m := mapping.New(dom, rng, model.MappingType(meta[3]))
	line := 2
	end := cr.InputOffset()
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("store: mapping csv: %w", err)
		}
		start := end
		end = cr.InputOffset()
		line++
		if len(rec) != 3 {
			return nil, fmt.Errorf("store: mapping csv line %d: want 3 fields, got %d", line, len(rec))
		}
		s, err := strconv.ParseFloat(rec[2], 64)
		if err != nil || math.IsNaN(s) {
			return nil, fmt.Errorf("store: mapping csv line %d: bad sim %q", line, rec[2])
		}
		if bytes.Contains(bytes.Trim(data[start:end], "\r\n"), []byte("\r\n")) {
			return nil, fmt.Errorf("store: mapping csv line %d: a quoted value holds a carriage return and line feed", line)
		}
		m.Add(model.ID(rec[0]), model.ID(rec[1]), s)
	}
	return m, nil
}

// forceChunks returns a plan of up to k chunks however small the body: each
// byte weighs a whole minimum chunk, so par's collapse of small inputs to
// one chunk never applies. Production decodes by splitBody.
func forceChunks(k int) func(n int) par.Plan {
	return func(n int) par.Plan { return par.SplitBy(n, k, func(int) int { return 1 << 12 }) }
}

// sameSet reports how got differs from want: LDS, ids in order, attributes
// and version.
func sameSet(got, want *model.ObjectSet) error {
	if got.LDS() != want.LDS() || !slices.Equal(got.IDs(), want.IDs()) || got.Version() != want.Version() {
		return fmt.Errorf("set %v %q v%d, want %v %q v%d", got.LDS(), got.IDs(), got.Version(), want.LDS(), want.IDs(), want.Version())
	}
	for i := range want.Len() {
		if !maps.Equal(got.At(i).Attrs, want.At(i).Attrs) {
			return fmt.Errorf("instance %q: attrs %q, want %q", want.IDAt(i), got.At(i).Attrs, want.At(i).Attrs)
		}
	}
	return nil
}

// mappingRows lists a mapping's header and rows in row order, sims as bits.
func mappingRows(m *mapping.Mapping) []string {
	rows := []string{fmt.Sprint(m.Domain(), m.Range(), m.Type())}
	m.EachOrd(func(d, r uint32, s float64) bool {
		rows = append(rows, fmt.Sprintf("%q %q %x", m.Dict().IDOf(d), m.Dict().IDOf(r), math.Float64bits(s)))
		return true
	})
	return rows
}

// sameErr reports how the error got differs from want, by their strings.
func sameErr(got, want error) error {
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		return fmt.Errorf("error %v, want %v", got, want)
	}
	return nil
}

// checkChunkedCSV reads in with both serial references and with both
// chunked readers under each plan, and reports the first difference.
func checkChunkedCSV(in string, plans map[string]func(n int) par.Plan) error {
	wantSet, wantSetErr := refReadObjectSetCSV(strings.NewReader(in))
	wantMap, wantMapErr := refReadMappingCSV(strings.NewReader(in))
	for name, plan := range plans {
		set, err := readObjectSetCSV(strings.NewReader(in), plan)
		if d := sameErr(err, wantSetErr); d != nil {
			return fmt.Errorf("objects, %s: %v", name, d)
		}
		if err == nil {
			if d := sameSet(set, wantSet); d != nil {
				return fmt.Errorf("objects, %s: %v", name, d)
			}
		}
		m, err := readMappingCSV(strings.NewReader(in), plan)
		if d := sameErr(err, wantMapErr); d != nil {
			return fmt.Errorf("mapping, %s: %v", name, d)
		}
		if err == nil && !slices.Equal(mappingRows(m), mappingRows(wantMap)) {
			return fmt.Errorf("mapping, %s: rows %q, want %q", name, mappingRows(m), mappingRows(wantMap))
		}
	}
	return nil
}

// FuzzChunkedCSVMatchesSerial holds both chunked CSV readers to the serial
// readers they replaced, cut into 1, 2, 3 and 7 chunks: the same set (ids,
// order, attributes, version), the same mapping (rows, order, sim bits), or
// the same error string. Cuts land wherever quote parity says a record
// starts, so quoted newlines, escapes and malformed quotes are what the
// seeds exercise.
func FuzzChunkedCSVMatchesSerial(f *testing.F) {
	const objects, mappings = "#objects,Publication@DBLP\nid,title,year\n", "#mapping,Publication@DBLP,Publication@ACM,same\ndomain,range,sim\n"
	for _, body := range []string{
		"p1,\"A, B\",2001\np2,\"two\nlines, \"\"quoted\"\"\",\np3,,1999\n",
		"p1,\"\"\"\",x\np2,\"\n\n\",y\np3,z,\"\"\n",
		"p1,a\"b,2001\np2,c,d\n",                    // a bare quote
		"p1,\"a\"b,2001\np2,c,d\n",                  // a quote that neither escapes nor closes
		"p1,a,b\np2,\"never closed,2001\np3,c,d\n",  // an unterminated quote at EOF
		"p1,a,b\r\n\r\np2,\"x\ny\",c\r\n\r\np3,d,e", // CRLF with blank lines, no final newline
		"p1,a,b\np2,\"x\r\ny\",c\np3,d,e\n",         // a quoted \r\n
		"p1,a,b\np1,c,d\np2,e,f\np1,g,\n",           // a repeated id
		"p1,a,b\n,c,d\n",                            // an empty id
		"p1,a\np2,b,c\n",                            // a short row
	} {
		f.Add(objects + body)
	}
	for _, body := range []string{
		"a,b,1\n\"c,\nd\",\"e\"\"f\",0.5\ng,h,0.25\n",
		"a,b,1\na,b,0.25\nc,d,2\na,b,0.5\n", // a repeated pair, a sim to clamp
		"a,b,1\n\"c\r\nd\",e,1\n",           // a quoted \r\n in an id
		"a,b,1\nc,d,NaN\n",
		"a,b,1\nc\"d,e,1\n",
		"a,b,1\r\n\r\nc,d,0.5\r\n\r\n",
		"a,b,1\n\"c,d,1\ne,f,1\n",
	} {
		f.Add(mappings + body)
	}
	plans := map[string]func(n int) par.Plan{"1 chunk": forceChunks(1), "2 chunks": forceChunks(2), "3 chunks": forceChunks(3), "7 chunks": forceChunks(7)}
	f.Fuzz(func(t *testing.T, in string) {
		if err := checkChunkedCSV(in, plans); err != nil {
			t.Fatalf("%q: %v", in, err)
		}
	})
}

// TestReadCSVPartitionInvariant reads a 20 000-row set and mapping, with
// quoted commas, escapes and newlines, at GOMAXPROCS 1, 2, 3 and 8 through
// the production plan, and holds every width to the serial references: the
// same set, the same rows, and, with a fault planted late in the file, the
// same error naming the same line.
func TestReadCSVPartitionInvariant(t *testing.T) {
	const n = 20000
	set := model.NewObjectSet(dblpPub)
	m := mapping.NewSame(dblpPub, acmPub)
	for i := range n {
		id := model.ID(fmt.Sprintf("p%d", i))
		attrs := map[string]string{"title": fmt.Sprintf("title %d, \"part\" %d", i, i%7)}
		if i%5 == 0 {
			attrs["note"] = fmt.Sprintf("line one\nline %d", i)
		}
		if i%3 != 0 {
			attrs["year"] = strconv.Itoa(1990 + i%30)
		}
		set.AddNew(id, attrs)
		m.Add(id, model.ID(fmt.Sprintf("q,%d", i%(n/2))), float64(i%100)/100)
	}
	var sb, mb bytes.Buffer
	if err := WriteObjectSetCSV(&sb, set); err != nil {
		t.Fatal(err)
	}
	if err := WriteMappingCSV(&mb, m); err != nil {
		t.Fatal(err)
	}
	inputs := map[string]string{"set": sb.String(), "mapping": mb.String()}
	late := strings.LastIndex(sb.String()[:sb.Len()*9/10], "\n") + 1
	inputs["set, bare quote"] = sb.String()[:late] + "x,a\"b,c,d\n" + sb.String()[late:]
	inputs["set, empty id"] = sb.String()[:late] + ",a,b,c\n" + sb.String()[late:]
	late = strings.LastIndex(mb.String()[:mb.Len()*9/10], "\n") + 1
	inputs["mapping, bad sim"] = mb.String()[:late] + "x,y,z\n" + mb.String()[late:]

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, in := range inputs {
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			if procs > 1 && splitBody(len(in)).Chunks() < 2 {
				t.Fatalf("%s at GOMAXPROCS %d: one chunk, the partition goes untested", name, procs)
			}
			if err := checkChunkedCSV(in, map[string]func(n int) par.Plan{"splitBody": splitBody}); err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
		}
	}
}
