package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/sources"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_small.txt from the current code")

// goldenSteps are the step results the experiments share through the
// engine cache, pinned by name.
var goldenSteps = []string{
	"pub-title-dblp-acm", "pub-author-dblp-acm", "pub-year-dblp-acm", "pub-merged-dblp-acm",
	"pub-title-dblp-gs", "pub-links-gs-acm", "venue-same-dblp-acm",
	"author-same-dblp-gs", "nh-pub-dblp-gs",
	"author-name-dblp-acm", "author-name-low-dblp-acm", "pub-title-gs-acm", "author-same-gs-acm",
}

// TestResultsMatchGolden runs every experiment on the small worlds of seeds
// 1–3 and compares, bit for bit, with testdata/golden_small.txt: each
// rendered table, the float bits of every metric, and each shared step
// mapping's rows in insertion order with their similarity bits (as a
// SHA-256 digest beside the row count). Regenerate with
// `go test ./internal/experiments -run TestResultsMatchGolden -update`,
// which only a deliberate change of results should need.
func TestResultsMatchGolden(t *testing.T) {
	var b strings.Builder
	for _, fig := range []func() (*TableResult, error){Figure4, Figure6, Figure9} {
		r, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		writeGoldenTable(&b, r)
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := sources.SmallConfig()
		cfg.Seed = seed
		s := NewSetting(cfg)
		fmt.Fprintf(&b, "=== seed %d\n", seed)
		for _, ex := range []func(*Setting) (*TableResult, error){
			Table1, Table2, Table3, Table4, Table5, Table6, Table7, Table8, Table9, Table10,
			Figure8Hub, AblationMergeMissing, AblationComposeAgg, AblationBlocking, AblationHubChoice,
			ExtensionGSSelfMapping, ExtensionSelfTuning,
		} {
			r, err := ex(s)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			writeGoldenTable(&b, r)
		}
		for _, name := range goldenSteps {
			m, ok := s.engine.Mapping(name)
			if !ok {
				t.Fatalf("seed %d: step %s not held by the engine", seed, name)
			}
			fmt.Fprintf(&b, "step %s rows=%d sha256=%x\n", name, m.Len(), mappingDigest(m))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "golden_small.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gotLines), len(wantLines)) {
			g, w := lineAt(gotLines, i), lineAt(wantLines, i)
			if g != w {
				t.Fatalf("results differ from %s at line %d:\n got %q\nwant %q", path, i+1, g, w)
			}
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}

// writeGoldenTable writes the rendered table and its metrics, sorted by
// label, with every float as its IEEE-754 bits.
func writeGoldenTable(b *strings.Builder, r *TableResult) {
	b.WriteString(r.Render())
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		m := r.Metrics[k]
		fmt.Fprintf(b, "metric %q P=%016x R=%016x F=%016x tp=%d fp=%d fn=%d\n", k,
			math.Float64bits(m.Precision), math.Float64bits(m.Recall), math.Float64bits(m.F1),
			m.TruePos, m.FalsePos, m.FalseNeg)
	}
}

// mappingDigest hashes the rows of m in insertion order: domain, range and
// the similarity's bits.
func mappingDigest(m *mapping.Mapping) []byte {
	h := sha256.New()
	var bits [8]byte
	m.Each(func(c mapping.Correspondence) {
		h.Write([]byte(c.Domain))
		h.Write([]byte{0})
		h.Write([]byte(c.Range))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(c.Sim))
		h.Write(bits[:])
	})
	return h.Sum(nil)
}
