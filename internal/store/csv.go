package store

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mapping"
	"repro/internal/model"
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

// ReadMappingCSV parses a mapping written by WriteMappingCSV. A sim that is
// not a number, NaN included, is an error naming its line, and so is an id
// holding \r\n, which the format cannot carry. Other sims are clamped to
// [0,1] as Add clamps them.
func ReadMappingCSV(r io.Reader) (*mapping.Mapping, error) {
	cr := csv.NewReader(r)
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
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("store: mapping csv: %w", err)
		}
		line++
		if len(rec) != 3 {
			return nil, fmt.Errorf("store: mapping csv line %d: want 3 fields, got %d", line, len(rec))
		}
		// encoding/csv reads a quoted \r\n as \n, so WriteMappingCSV could
		// not write such an id back as it was read.
		if strings.Contains(rec[0], "\r\n") || strings.Contains(rec[1], "\r\n") {
			return nil, fmt.Errorf("store: mapping csv line %d: an id holds a carriage return and line feed", line)
		}
		s, err := strconv.ParseFloat(rec[2], 64)
		if err != nil || math.IsNaN(s) {
			return nil, fmt.Errorf("store: mapping csv line %d: bad sim %q", line, rec[2])
		}
		m.Add(model.ID(rec[0]), model.ID(rec[1]), s)
	}
	return m, nil
}

// WriteObjectSetCSV writes the object set with a deterministic column
// order: id first, then all attribute names seen across instances, sorted.
func WriteObjectSetCSV(w io.Writer, set *model.ObjectSet) error {
	attrSet := make(map[string]bool)
	set.Each(func(in *model.Instance) bool {
		for k := range in.Attrs {
			attrSet[k] = true
		}
		return true
	})
	attrs := make([]string, 0, len(attrSet))
	for k := range attrSet {
		attrs = append(attrs, k)
	}
	sort.Strings(attrs)

	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"#objects", set.LDS().String()}); err != nil {
		return err
	}
	header := append([]string{"id"}, attrs...)
	if err := cw.Write(header); err != nil {
		return err
	}
	var werr error
	set.Each(func(in *model.Instance) bool {
		rec := make([]string, 0, len(header))
		rec = append(rec, string(in.ID))
		for _, a := range attrs {
			rec = append(rec, in.Attr(a))
		}
		if err := cw.Write(rec); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	cw.Flush()
	return cw.Error()
}

// ReadObjectSetCSV parses an object set written by WriteObjectSetCSV. It
// rejects, naming the column or line, what WriteObjectSetCSV could not
// write back as read: a header naming a column twice, an empty id, and a
// quoted \r\n, which encoding/csv reads as \n.
func ReadObjectSetCSV(r io.Reader) (*model.ObjectSet, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: objects csv: %w", err)
	}
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	// read returns the next record and whether its raw bytes hold a \r\n
	// other than the line endings around it: one inside quotes.
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
