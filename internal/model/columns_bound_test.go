package model_test

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/match"
	"repro/internal/model"
)

// TestTFIDFMatchesLeaveStoreBounded pins that matching a long-lived set
// again and again under TF-IDF — a fresh corpus on every match — leaves its
// column store at the blocker's columns: corpus-backed profiles build per
// match and are never kept.
func TestTFIDFMatchesLeaveStoreBounded(t *testing.T) {
	stored := model.NewObjectSet(model.LDS{Source: "Stored", Type: model.Publication})
	for i := 0; i < 12; i++ {
		stored.AddNew(model.ID(fmt.Sprintf("s%d", i)), map[string]string{"title": fmt.Sprintf("bounded store title %d", i)})
	}
	m := &match.TFIDFAttribute{AttrA: "title", AttrB: "title", Threshold: 0.3,
		Blocker: block.TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 1}}
	kept := -1
	for i := 0; i < 200; i++ {
		query := model.NewObjectSet(model.LDS{Source: "Query", Type: model.Publication})
		query.AddNew("q", map[string]string{"title": fmt.Sprintf("bounded store title %d", i%12)})
		res, err := m.Match(query, stored)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() == 0 {
			t.Fatalf("match %d found nothing", i)
		}
		n := model.ColumnCount(stored)
		if kept < 0 {
			kept = n
		}
		if n != kept {
			t.Fatalf("after %d matches the stored set holds %d columns, %d after the first", i+1, n, kept)
		}
	}
	if kept > 2 {
		t.Errorf("the blocker's columns are all a TF-IDF match may keep; the set holds %d", kept)
	}
}
