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

func TestCardinalityInverse(t *testing.T) {
	if CardOneToMany.Inverse() != CardManyToOne {
		t.Error("1:n inverse should be n:1")
	}
	if CardManyToOne.Inverse() != CardOneToMany {
		t.Error("n:1 inverse should be 1:n")
	}
	if CardManyToMany.Inverse() != CardManyToMany {
		t.Error("n:m inverse should be n:m")
	}
	if CardOneToOne.Inverse() != CardOneToOne {
		t.Error("1:1 inverse should be 1:1")
	}
}
