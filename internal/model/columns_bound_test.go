package model_test

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/match"
	"repro/internal/model"
)

// TestTFIDFMatchesLeaveStoreBounded covers the one unbounded key source in
// the tree: TFIDFAttribute builds a fresh corpus — a fresh profile key — on
// every match, so a long-lived set matched again and again must age those
// columns out instead of accumulating them.
func TestTFIDFMatchesLeaveStoreBounded(t *testing.T) {
	stored := model.NewObjectSet(model.LDS{Source: "Stored", Type: model.Publication})
	for i := 0; i < 12; i++ {
		stored.AddNew(model.ID(fmt.Sprintf("s%d", i)), map[string]string{"title": fmt.Sprintf("bounded store title %d", i)})
	}
	m := &match.TFIDFAttribute{AttrA: "title", AttrB: "title", Threshold: 0.3,
		Blocker: block.TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 1}, Workers: 1}
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
		if n := model.ColumnCount(stored); n > model.ColumnLimit {
			t.Fatalf("after %d matches the stored set holds %d columns, limit %d", i+1, n, model.ColumnLimit)
		}
	}
	if n := model.ColumnCount(stored); n != model.ColumnLimit {
		t.Errorf("200 fresh corpora should have filled the store to its limit %d, it holds %d", model.ColumnLimit, n)
	}
}
