package linalg

import "testing"

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Errorf("Clone is not independent: v[0] = %v", v[0])
	}
}
