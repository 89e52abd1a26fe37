package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/mapping"
	"repro/internal/model"
)

// FuzzRecordDecodeMatchesJSON: the scanner is encoding/json on its own
// inputs. Whenever it accepts a line, encoding/json accepts it too, and
// decode — scanner or fallback — yields what encoding/json yields for every
// line: the same op, name, id, endpoints, type and rows, ids byte for byte
// and sims bit for bit.
func FuzzRecordDecodeMatchesJSON(f *testing.F) {
	line := func(rec walRecord) []byte {
		data, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	ends := walRecord{Name: "m", Domain: "Publication@DBLP", Range: "Publication@ACM", Type: "same"}
	put, add := ends, ends
	put.Op, add.Op = "put", "add"
	put.Rows = []corrRecord{{D: "a", R: "b", S: 0.5}, {D: "a", R: "b", S: 1}, {D: "", R: "é", S: 1e-7}}
	add.Rows = []corrRecord{{D: "d1", R: "r1", S: 0.95}}
	for _, rec := range []walRecord{put, add, {Op: "drop", Name: "m", ID: "a"}, {Op: "del", Name: "m"}, {Op: "noop"}} {
		f.Add(line(rec))
	}
	// Ids the writer escapes, each as a put and as the raw bytes.
	for _, id := range []string{"<a>", "x&y", `q"uote`, `back\slash`, "line\u2028sep", "para\u2029sep", "bad\xffutf8", "ctl\x01"} {
		put.Rows = []corrRecord{{D: id, R: "r", S: 0.5}}
		f.Add(line(put))
		f.Add([]byte(`{"op":"put","name":"m","rows":[{"d":"` + id + `","r":"r","s":0.5}]}`))
	}
	for _, s := range []string{
		`{"op":"put", "name":"m","rows":[{"d":"a","r":"b","s":1}]}`, // whitespace
		`{"op":"put","name":"m","rows":[{"d":"a","r":"b","s":1}]}` + " \r",
		` {"op":"del","name":"m"}`,
		`{"name":"m","op":"del"}`, // reordered keys
		`{"op":"put","name":"m","rows":[{"r":"b","d":"a","s":1}]}`,
		`{"op":"put","name":"m","rows":[{"D":"a","r":"b","s":1}]}`, // upper-case key
		`{"OP":"del","name":"m"}`,
		`{"op":"del","name":"m","name":"n"}`, // duplicate keys: the last wins
		`{"op":"put","name":"m","rows":[{"d":"a","d":"z","r":"b","s":1}]}`,
		`{"op":"put","name":"m","rows":[{"d":"a","r":"b","s":1}],"rows":[{"d":"c","r":"e","s":0.5}]}`,
		`{"op":"del","name":"m","extra":[1,2,{"x":null}]}`, // unknown fields
		`{"op":"put","name":"m","rows":[{"d":"a","r":"b","s":1,"w":2}]}`,
		`{"op":"put","name":"m","rows":null}`,
		`{"op":"put","name":"m","rows":[]}`,
		`{"op":"put","name":"m","rows":[{"d":"a","r":"b"}]}`,
		`{"op":null}`,
		`{"op":"del","name":"m"}{}`,
		`{"op":"del","name":"m"`,
		``,
	} {
		f.Add([]byte(s))
	}
	for _, num := range []string{"1e400", "-0", "1E+2", "01", ".5", "Inf", "0x1p-2", "+1", `"0.5"`, "1.", "-", "2e", "1e-400", "0.1000000000000000055511151231257827", "-1.5", "1_0", "NaN"} {
		f.Add([]byte(`{"op":"add","name":"m","rows":[{"d":"a","r":"b","s":` + num + `}]}`))
	}
	for _, l := range bytes.Split(walFixture(f), []byte("\n")) {
		f.Add(l)
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		var w walRecord
		jsonErr := json.Unmarshal(line, &w)
		var rec lineRecord
		if rec.scan(line) && jsonErr != nil {
			t.Fatalf("scanner accepts %q, encoding/json rejects it: %v", line, jsonErr)
		}
		if err := rec.decode(line); (err == nil) != (jsonErr == nil) {
			t.Fatalf("decode(%q) = %v, encoding/json says %v", line, err, jsonErr)
		}
		if jsonErr != nil {
			return
		}
		if rec.op != w.Op || rec.name != w.Name || rec.id != w.ID || rec.domain != w.Domain || rec.rng != w.Range || rec.typ != w.Type {
			t.Fatalf("decode(%q) header = %q %q %q %q %q %q, encoding/json: %+v", line, rec.op, rec.name, rec.id, rec.domain, rec.rng, rec.typ, w)
		}
		if len(rec.sims) != len(w.Rows) || len(rec.ids) != 2*len(w.Rows) {
			t.Fatalf("decode(%q): %d sims and %d ids, encoding/json: %d rows", line, len(rec.sims), len(rec.ids), len(w.Rows))
		}
		for i, r := range w.Rows {
			if string(rec.ids[2*i]) != r.D || string(rec.ids[2*i+1]) != r.R || math.Float64bits(rec.sims[i]) != math.Float64bits(r.S) {
				t.Fatalf("decode(%q) row %d = (%q, %q, %v), encoding/json: %+v", line, i, rec.ids[2*i], rec.ids[2*i+1], rec.sims[i], r)
			}
		}
	})
}

// TestScanTakesWriterLayout: every line the writer emits for ids it need
// not escape is on the scanner's path; a line holding an escaped id is not,
// and still decodes to the id.
func TestScanTakesWriterLayout(t *testing.T) {
	var rec lineRecord
	for _, l := range bytes.Split(bytes.TrimSuffix(walFixture(t), []byte("\n")), []byte("\n")) {
		if !rec.scan(l) {
			t.Errorf("writer line off the scanner's path: %s", l)
		}
	}
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("日本", "é", 1e-9)
	m.Add("", "x y", 0.123456789)
	m.Add("a", "b", 1)
	data, err := json.Marshal(putRecord("m", m))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.scan(data) || len(rec.sims) != 3 || string(rec.ids[1]) != "é" || rec.sims[0] != 1e-9 {
		t.Fatalf("writer line %s not scanned into its rows", data)
	}
	m.Add("<a>", "b", 0.5)
	if data, err = json.Marshal(putRecord("m", m)); err != nil {
		t.Fatal(err)
	}
	if rec.scan(data) {
		t.Fatalf("line with an escaped id scanned: %s", data)
	}
	if err := rec.decode(data); err != nil || len(rec.sims) != 4 || string(rec.ids[6]) != "<a>" {
		t.Fatalf("escaped line decodes to %q, %v", rec.ids, err)
	}
}

// refReplayFile is the parent commit's replay, kept as the reference the
// column decoder must agree with: every line json.Unmarshal-ed into a
// walRecord, every row added through the id-string Add/AddMax.
func (s *Store) refReplayFile(path string) (replayState, error) {
	var st replayState
	f, err := s.fsys.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, fmt.Errorf("store: open %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	lineNo := 0
	var pendingErr error
	for {
		line, readErr := r.ReadBytes('\n')
		if readErr != nil && readErr != io.EOF {
			return st, fmt.Errorf("store: scan %s: %w", path, readErr)
		}
		terminated := len(line) > 0 && line[len(line)-1] == '\n'
		st.size += int64(len(line))
		if len(line) > 0 {
			lineNo++
			if pendingErr != nil {
				return st, pendingErr
			}
			body := bytes.TrimSuffix(line, []byte("\n"))
			switch {
			case len(body) == 0:
				st.durable = st.size
			case !terminated:
				pendingErr = fmt.Errorf("store: %s line %d: torn unterminated record", path, lineNo)
			default:
				if rows, err := s.refApplyRecord(path, lineNo, body); err != nil {
					pendingErr = err
				} else {
					st.rows += rows
					st.durable = st.size
				}
			}
		}
		if readErr == io.EOF {
			return st, nil
		}
	}
}

func (s *Store) refApplyRecord(path string, lineNo int, body []byte) (int, error) {
	var rec walRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		return 0, fmt.Errorf("store: %s line %d: %w", path, lineNo, err)
	}
	fromRecord := func(rec walRecord) (*mapping.Mapping, error) {
		dom, err := model.ParseLDS(rec.Domain)
		if err != nil {
			return nil, fmt.Errorf("store: record %q: %w", rec.Name, err)
		}
		rng, err := model.ParseLDS(rec.Range)
		if err != nil {
			return nil, fmt.Errorf("store: record %q: %w", rec.Name, err)
		}
		m := mapping.New(dom, rng, model.MappingType(rec.Type))
		for _, row := range rec.Rows {
			m.Add(model.ID(row.D), model.ID(row.R), row.S)
		}
		return m, nil
	}
	switch rec.Op {
	case "put":
		m, err := fromRecord(rec)
		if err != nil {
			return 0, err
		}
		if _, exists := s.maps[rec.Name]; !exists {
			s.order = append(s.order, rec.Name)
		}
		s.maps[rec.Name] = m
		return len(rec.Rows), nil
	case "add":
		m, exists := s.maps[rec.Name]
		if !exists {
			empty := rec
			empty.Rows = nil
			var err error
			if m, err = fromRecord(empty); err != nil {
				return 0, err
			}
			s.maps[rec.Name] = m
			s.order = append(s.order, rec.Name)
		}
		for _, row := range rec.Rows {
			m.AddMax(model.ID(row.D), model.ID(row.R), row.S)
		}
		return len(rec.Rows), nil
	case "drop":
		if m, ok := s.maps[rec.Name]; ok {
			m.RemoveTouching(model.ID(rec.ID))
		}
		return 1, nil
	case "del":
		if _, ok := s.maps[rec.Name]; ok {
			delete(s.maps, rec.Name)
			for i, n := range s.order {
				if n == rec.Name {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
		}
		return 1, nil
	case "noop":
		return 0, nil
	default:
		return 0, fmt.Errorf("store: %s line %d: unknown op %q", path, lineNo, rec.Op)
	}
}

// replayDir replays dir's snapshot and log into a fresh store the way
// OpenRepositoryFS does, through the given replay.
func replayDir(dir string, replay func(*Store, string) (replayState, error)) (*Store, [2]replayState, error) {
	s := NewRepository()
	s.fsys = faultfs.OS{}
	var st [2]replayState
	var err error
	if st[0], err = replay(s, filepath.Join(dir, snapshotFile)); err == nil {
		st[1], err = replay(s, filepath.Join(dir, walFile))
	}
	return s, st, err
}

// checkReplayMatchesReference replays dir both ways and requires the same
// outcome: the same error, or the same replay states, names in order, rows
// in order with the same ordinals and sim bits. Both replays intern through
// model.IDs, so equal ordinals are equal ids.
func checkReplayMatchesReference(t *testing.T, label, dir string) {
	t.Helper()
	got, gotSt, gotErr := replayDir(dir, (*Store).replayFile)
	want, wantSt, wantErr := replayDir(dir, (*Store).refReplayFile)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: replay error %v, reference %v", label, gotErr, wantErr)
	}
	if gotSt != wantSt {
		t.Fatalf("%s: replay states %+v, reference %+v", label, gotSt, wantSt)
	}
	if g, w := got.Names(), want.Names(); strings.Join(g, "\x00") != strings.Join(w, "\x00") {
		t.Fatalf("%s: names %q, reference %q", label, g, w)
	}
	for _, name := range want.Names() {
		gm, wm := got.maps[name], want.maps[name]
		if gm.Domain() != wm.Domain() || gm.Range() != wm.Range() || gm.Type() != wm.Type() || gm.Len() != wm.Len() {
			t.Fatalf("%s: %s is %v→%v %s with %d rows, reference %v→%v %s with %d", label, name,
				gm.Domain(), gm.Range(), gm.Type(), gm.Len(), wm.Domain(), wm.Range(), wm.Type(), wm.Len())
		}
		type row struct {
			d, r uint32
			s    uint64
		}
		var rows []row
		wm.EachOrd(func(d, r uint32, s float64) bool {
			rows = append(rows, row{d, r, math.Float64bits(s)})
			return true
		})
		i := 0
		gm.EachOrd(func(d, r uint32, s float64) bool {
			if (row{d, r, math.Float64bits(s)}) != rows[i] {
				t.Fatalf("%s: %s row %d = (%d, %d, %v), reference %+v", label, name, i, d, r, s, rows[i])
			}
			i++
			return true
		})
		if !gm.Equal(wm, 0) {
			t.Fatalf("%s: %s is not Equal to the reference", label, name)
		}
	}
}

// refIDs are the ids random stores draw from: plain ones, and ones the
// writer escapes or rewrites, which replay through the encoding/json path.
var refIDs = []model.ID{"a", "b", "c", "d1", "r1", "x-42", "", "é", "<a>", "x&y", `q"`, `b\s`, "l\u2028s", "bad\xff", "日本"}

// randomHistory drives a repository in dir through a random history of
// every logged write, compacting now and then so the snapshot replays too.
func randomHistory(t *testing.T, rnd *rand.Rand, dir string) {
	t.Helper()
	s, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := func() model.ID { return refIDs[rnd.Intn(len(refIDs))] }
	names := []string{"m", "live.m", "n"}
	for i := 0; i < 30; i++ {
		name := names[rnd.Intn(len(names))]
		switch k := rnd.Intn(10); {
		case k < 3:
			m := mapping.NewSame(dblpPub, acmPub)
			for j := rnd.Intn(12); j > 0; j-- {
				m.Add(id(), id(), float64(rnd.Intn(101))/100)
			}
			err = s.Put(name, m)
		case k < 6:
			var rows []mapping.Correspondence
			for j := 1 + rnd.Intn(4); j > 0; j-- {
				rows = append(rows, mapping.Correspondence{Domain: id(), Range: id(), Sim: float64(rnd.Intn(101)) / 100})
			}
			err = s.PutDelta(name, dblpPub, acmPub, model.SameMappingType, rows)
		case k < 8:
			_, err = s.DropTouching(name, id())
		case k < 9:
			_, err = s.Delete(name)
		default:
			err = s.Compact()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// handLines are records no writer produces but a replay must take: repeated
// pairs, sims outside [0,1], whitespace, reordered keys, escapes.
var handLines = []string{
	`{"op":"put","name":"h","domain":"Publication@DBLP","range":"Publication@ACM","type":"same","rows":[{"d":"a","r":"b","s":0.5},{"d":"c","r":"b","s":1.5},{"d":"a","r":"b","s":-0.25},{"d":"z","r":"a","s":-0}]}`,
	`{"op":"add","name":"h","rows":[{"d":"a","r":"b","s":0.75},{"d":"n","r":"n","s":2},{"d":"n","r":"n","s":0.1}]}`,
	`{"op":"add","name":"h2","domain":"Publication@DBLP","range":"Publication@ACM","type":"same","rows":[{"d":"q","r":"q","s":1E-1},{"d":"q","r":"q","s":0.05}]}`,
	`{ "op": "put", "name": "w", "domain": "Publication@DBLP", "range": "Publication@ACM", "type": "same", "rows": [ {"d": "a", "r": "b", "s": 1}, {"d": "a", "r": "b", "s": 0.3} ] }`,
	`{"rows":[{"s":0.4,"r":"<b>","d":"a\\b"}],"type":"same","range":"Publication@ACM","domain":"Publication@DBLP","name":"k","op":"put"}`,
	`{"op":"drop","name":"h","id":"c"}`,
}

// TestReplayMatchesReference holds the column decoder to the parent's
// replay on random stores with hand-written records appended, on every torn
// tail and on mid-log corruption of them, and on the fuzz fixture.
func TestReplayMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(25))
	write := func(dir string, wal []byte) {
		if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fixture := t.TempDir()
	write(fixture, walFixture(t))
	checkReplayMatchesReference(t, "walFixture", fixture)

	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		randomHistory(t, rnd, dir)
		wal, err := os.ReadFile(filepath.Join(dir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range rnd.Perm(len(handLines))[:3] {
			wal = append(wal, handLines[i]+"\n"...)
		}
		write(dir, wal)
		checkReplayMatchesReference(t, fmt.Sprintf("trial %d", trial), dir)
		for k := 0; k < 8; k++ {
			variant := append([]byte(nil), wal[:rnd.Intn(len(wal)+1)]...) // torn tail
			label := fmt.Sprintf("trial %d torn at %d", trial, len(variant))
			if k%2 == 1 && len(variant) > 0 {
				variant = append(variant, wal[len(variant):]...)
				p := rnd.Intn(len(variant))
				variant[p] = "x}\"\\0 ,:[\xff"[rnd.Intn(10)] // corruption mid-log
				label = fmt.Sprintf("trial %d corrupt at %d", trial, p)
			}
			write(dir, variant)
			checkReplayMatchesReference(t, label, dir)
		}
	}
}
