package model

import "testing"

func TestCardinalityString(t *testing.T) {
	tests := []struct {
		c    Cardinality
		want string
	}{
		{CardOneToOne, "1:1"},
		{CardOneToMany, "1:n"},
		{CardManyToOne, "n:1"},
		{CardManyToMany, "n:m"},
		{CardUnknown, "?"},
	}
	for _, tc := range tests {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.c, got, tc.want)
		}
	}
}
