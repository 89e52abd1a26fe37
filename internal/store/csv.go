package store

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"io/fs"
	"math"
	"slices"
	"strconv"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/par"
)

// CSV import/export for mapping tables and object sets, the interchange
// format of the cmd/moma tools. A mapping file carries its metadata in the
// first data row:
//
//	#mapping,Publication@DBLP,Publication@ACM,same
//	domain,range,sim
//	conf/VLDB/MadhavanBR01,P-672191,1
//
// An object-set file carries the LDS in the first row and a header naming
// the id column plus the attribute columns:
//
//	#objects,Publication@DBLP
//	id,title,year
//	conf/VLDB/MadhavanBR01,Generic Schema Matching with Cupid,2001
//
// Both readers share one decoder. A file is read whole, in one allocation
// when its size is known; its metadata row and header decode first, and the
// rest is cut at record starts into par.Split chunks that encoding/csv
// decodes on every core, joined in file order (decodeBody). The result and
// every error are those of one serial pass: an object set is built once
// from its value columns in row order, and a mapping's ids intern in row order,
// domain before range, as one Add per row interns them. Both formats reject
// a quoted \r\n, which encoding/csv reads as \n, naming its line.

// WriteMappingCSV writes m in the mapping CSV format, sorted canonically.
func WriteMappingCSV(w io.Writer, m *mapping.Mapping) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"#mapping", m.Domain().String(), m.Range().String(), string(m.Type())}); err != nil {
		return err
	}
	if err := cw.Write([]string{"domain", "range", "sim"}); err != nil {
		return err
	}
	for _, c := range m.Sorted() {
		rec := []string{string(c.Domain), string(c.Range), strconv.FormatFloat(c.Sim, 'g', -1, 64)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadMappingCSV parses a mapping written by WriteMappingCSV. It rejects,
// naming the line, a sim that is not a number, NaN included, and a quoted
// \r\n, which encoding/csv reads as \n, so WriteMappingCSV could not write
// the value back as read. Other sims are clamped to [0,1], and a repeated
// pair keeps its first position and its last sim, as Add does. The rows
// decode on every core (decodeBody); their ids intern in row order, domain
// before range, as one Add per row interns them.
func ReadMappingCSV(r io.Reader) (*mapping.Mapping, error) {
	return readMappingCSV(r, splitBody)
}

func readMappingCSV(r io.Reader, split func(n int) par.Plan) (*mapping.Mapping, error) {
	in, err := readCSV(r)
	if err != nil {
		return nil, fmt.Errorf("store: mapping csv: %w", err)
	}
	meta, _, err := in.row()
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
	header, _, err := in.row()
	if err != nil {
		return nil, fmt.Errorf("store: mapping csv: missing header: %w", err)
	}
	if len(header) != 3 || header[0] != "domain" || header[1] != "range" || header[2] != "sim" {
		return nil, fmt.Errorf("store: mapping csv: bad header %v", header)
	}
	rows, err := decodeBody(in, "mapping", 3, split, func(rec []string) (mapping.Correspondence, string) {
		s, err := strconv.ParseFloat(rec[2], 64)
		if err != nil || math.IsNaN(s) {
			return mapping.Correspondence{}, fmt.Sprintf("bad sim %q", rec[2])
		}
		return mapping.Correspondence{Domain: model.ID(rec[0]), Range: model.ID(rec[1]), Sim: s}, ""
	})
	if err != nil {
		return nil, err
	}
	pairs := make([]uint32, 0, 2*len(rows))
	sims := make([]float64, len(rows))
	for i, row := range rows {
		pairs = append(pairs, model.IDs.Ord(row.Domain), model.IDs.Ord(row.Range))
		sims[i] = row.Sim
	}
	return mapping.FromOrdinals(dom, rng, model.MappingType(meta[3]), pairs, sims), nil
}

// WriteObjectSetCSV writes the object set with a deterministic column
// order: id first, then every attribute name that at least one instance
// has, sorted. An absent attribute writes as an empty cell.
func WriteObjectSetCSV(w io.Writer, set *model.ObjectSet) error {
	attrs := set.AttrNames()
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"#objects", set.LDS().String()}); err != nil {
		return err
	}
	rec := append([]string{"id"}, attrs...)
	if err := cw.Write(rec); err != nil {
		return err
	}
	for i := range set.Len() {
		rec[0] = string(set.IDAt(i))
		for c, a := range attrs {
			rec[1+c] = set.Attr(i, a)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadObjectSetCSV parses an object set written by WriteObjectSetCSV. It
// rejects, naming the column or line, what WriteObjectSetCSV could not
// write back as read: a header naming a column twice, an empty id, and a
// quoted \r\n, which encoding/csv reads as \n. The rows decode on every
// core (decodeBody) and the set is built once from them in row order, one
// value column per attribute column: an empty cell is an absent value.
func ReadObjectSetCSV(r io.Reader) (*model.ObjectSet, error) {
	return readObjectSetCSV(r, splitBody)
}

func readObjectSetCSV(r io.Reader, split func(n int) par.Plan) (*model.ObjectSet, error) {
	in, err := readCSV(r)
	if err != nil {
		return nil, fmt.Errorf("store: objects csv: %w", err)
	}
	meta, _, err := in.row()
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
	header, crlf, err := in.row()
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
	rows, err := decodeBody(in, "objects", len(header), split, func(rec []string) ([]string, string) {
		if rec[0] == "" {
			return nil, "empty id"
		}
		return slices.Clone(rec), ""
	})
	if err != nil {
		return nil, err
	}
	ids := make([]model.ID, len(rows))
	vals, has := make([][]string, len(header)-1), make([][]bool, len(header)-1)
	for c := range vals {
		vals[c], has[c] = make([]string, len(rows)), make([]bool, len(rows))
	}
	for r, rec := range rows {
		ids[r] = model.ID(rec[0])
		for c, v := range rec[1:] {
			vals[c][r], has[c][r] = v, v != ""
		}
	}
	return model.NewObjectSetFromColumns(lds, ids, header[1:], vals, has), nil
}

// csvInput is a CSV file read whole, with a reader over its first rows: the
// metadata row and the header, which decode one at a time before the rest,
// the body, is cut into chunks.
type csvInput struct {
	data []byte
	cr   *csv.Reader
	end  int64 // the offset just past the last row read
}

// readCSV reads r whole: in one allocation when r reports its size (Stat
// on a file, Len on an in-memory reader), growing as io.ReadAll does
// otherwise.
func readCSV(r io.Reader) (*csvInput, error) {
	var buf bytes.Buffer
	switch r := r.(type) {
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	case interface{ Len() int }:
		buf.Grow(r.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	cr := csv.NewReader(bytes.NewReader(buf.Bytes()))
	cr.FieldsPerRecord = -1
	return &csvInput{data: buf.Bytes(), cr: cr}, nil
}

// row returns the next row and whether its raw bytes hold a quoted \r\n.
func (in *csvInput) row() ([]string, bool, error) {
	rec, err := in.cr.Read()
	start := in.end
	in.end = in.cr.InputOffset()
	return rec, quotedCRLF(in.data[start:in.end]), err
}

// quotedCRLF reports whether a record's raw bytes hold a \r\n other than
// the line endings around it: one inside quotes, which encoding/csv reads
// as \n.
func quotedCRLF(raw []byte) bool {
	return bytes.Contains(bytes.Trim(raw, "\r\n"), []byte("\r\n"))
}

// splitBody is the plan a CSV body is decoded by: par.Split over its bytes.
func splitBody(n int) par.Plan { return par.Split(n, 0) }

// recordFault is a record check's failure; decodeBody names its line.
type recordFault string

func (f recordFault) Error() string { return string(f) }

// decodeBody decodes the records after the header, the body of in, into
// one value each, in file order. The body is cut into the chunks of
// split(len(body)), each cut moved forward to a record start (recordCuts),
// and each chunk decodes on its own core with its own csv.Reader. A record
// must have the given number of fields; then row turns it into a value or
// names its fault; then its raw bytes must not hold a quoted \r\n. The
// first fault in file order is returned, worded as a serial read words it:
// a record's line counts records from the metadata row, and a parse
// error's lines count the file's lines.
func decodeBody[T any](in *csvInput, kind string, fields int, split func(n int) par.Plan, row func(rec []string) (T, string)) ([]T, error) {
	body := in.data[in.end:]
	plan := split(len(body))
	cuts := recordCuts(body, plan)
	vals := make([][]T, plan.Chunks())
	faults := make([]error, plan.Chunks())
	plan.Run(func(c, _, _ int) {
		vals[c], faults[c] = decodeChunk(body[cuts[c]:cuts[c+1]], fields, row)
	})
	n := 0
	for c, err := range faults {
		switch err := err.(type) {
		case nil:
		case recordFault:
			return nil, fmt.Errorf("store: %s csv line %d: %s", kind, 3+n+len(vals[c]), err)
		case *csv.ParseError:
			lines := bytes.Count(in.data[:in.end+int64(cuts[c])], []byte("\n"))
			err.StartLine += lines
			err.Line += lines
			return nil, fmt.Errorf("store: %s csv: %w", kind, err)
		default:
			return nil, fmt.Errorf("store: %s csv: %w", kind, err)
		}
		n += len(vals[c])
	}
	out := make([]T, 0, n)
	for _, v := range vals {
		out = append(out, v...)
	}
	return out, nil
}

// decodeChunk decodes the records of one chunk until the first fault, which
// it returns beside the values before it: encoding/csv's error, with lines
// counted from the chunk's start, or a recordFault.
func decodeChunk[T any](chunk []byte, fields int, row func(rec []string) (T, string)) ([]T, error) {
	cr := csv.NewReader(bytes.NewReader(chunk))
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	vals := make([]T, 0, bytes.Count(chunk, []byte("\n"))+1)
	var end int64
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return vals, nil
		}
		if err != nil {
			return vals, err
		}
		start := end
		end = cr.InputOffset()
		if len(rec) != fields {
			return vals, recordFault(fmt.Sprintf("want %d fields, got %d", fields, len(rec)))
		}
		v, fault := row(rec)
		if fault != "" {
			return vals, recordFault(fault)
		}
		if quotedCRLF(chunk[start:end]) {
			return vals, recordFault("a quoted value holds a carriage return and line feed")
		}
		vals = append(vals, v)
	}
}

// recordCuts returns the byte bounds of plan's chunks over body, each inner
// bound moved forward to the next record start: the byte after a '\n' with
// an even number of '"' before it. For every prefix of a body that
// encoding/csv accepts (strict quotes), that parity is its quoted state. So
// every cut before the first malformed quote is a record start, and the
// chunk holding that quote starts at one too and meets the first fault
// where a serial read meets it; the chunks after it are never looked at.
func recordCuts(body []byte, plan par.Plan) []int {
	k := plan.Chunks()
	cuts := make([]int, k+1)
	cuts[k] = len(body)
	at, quotes := 0, 0 // quotes counts the '"' in body[:at]
	for c := 1; c < k; c++ {
		lo, _ := plan.Bounds(c)
		if lo-1 > at {
			quotes += bytes.Count(body[at:lo-1], []byte{'"'})
			at = lo - 1
		}
		for at < len(body) && (body[at] != '\n' || quotes%2 == 1) {
			if body[at] == '"' {
				quotes++
			}
			at++
		}
		at = min(at+1, len(body))
		cuts[c] = at
	}
	return cuts
}
