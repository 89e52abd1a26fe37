package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sources"
)

// TestExperimentsWorkerInvariant runs every table, ablation and extension on
// a fresh small setting at GOMAXPROCS 1 and 8. The match kernel's ranges and
// the mapping operators' workers are GOMAXPROCS, and no result may
// depend on it: both runs must render identical rows and identical metrics.
// Under -v it logs every rendered table, in the paper's layout.
func TestExperimentsWorkerInvariant(t *testing.T) {
	experiments := []struct {
		id  string
		run func(*Setting) (*TableResult, error)
	}{
		{"Table 1", Table1}, {"Table 2", Table2}, {"Table 3", Table3},
		{"Table 4", Table4}, {"Table 5", Table5}, {"Table 6", Table6},
		{"Table 7", Table7}, {"Table 8", Table8}, {"Table 9", Table9},
		{"Table 10", Table10}, {"Figure 8", Figure8Hub},
		{"Ablation A1", AblationMergeMissing}, {"Ablation A2", AblationComposeAgg},
		{"Ablation A3", AblationBlocking}, {"Ablation A4", AblationHubChoice},
		{"Extension E1", ExtensionGSSelfMapping}, {"Extension E2", ExtensionSelfTuning},
	}
	runAll := func(procs int) []*TableResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s := NewSetting(sources.SmallConfig())
		out := make([]*TableResult, len(experiments))
		for i, ex := range experiments {
			r, err := ex.run(s)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", ex.id, procs, err)
			}
			out[i] = r
		}
		return out
	}
	one, eight := runAll(1), runAll(8)
	for i, ex := range experiments {
		t.Log(one[i].Render())
		if !reflect.DeepEqual(one[i].Rows, eight[i].Rows) {
			t.Errorf("%s rows differ:\nGOMAXPROCS 1: %v\nGOMAXPROCS 8: %v", ex.id, one[i].Rows, eight[i].Rows)
		}
		if !reflect.DeepEqual(one[i].Metrics, eight[i].Metrics) {
			t.Errorf("%s metrics differ:\nGOMAXPROCS 1: %v\nGOMAXPROCS 8: %v", ex.id, one[i].Metrics, eight[i].Metrics)
		}
	}
}
