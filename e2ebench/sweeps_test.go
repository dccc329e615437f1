package main

import "testing"

// TestPartMean checks that each part weighs the same however many
// sweeps it got, and that a part's outlying sweep does not move it.
func TestPartMean(t *testing.T) {
	for _, c := range []struct {
		xs    []float64
		parts []int
		want  float64
	}{
		{[]float64{4}, []int{0}, 4},
		{[]float64{2, 4, 6, 100, 2}, []int{0, 0, 0, 0, 0}, 4},
		{[]float64{6, 8, 3, 8}, []int{0, 1, 2, 0}, 6},
		{[]float64{1, 10, 2, 3}, []int{0, 1, 0, 0}, 6},
	} {
		if got := partMean(c.xs, c.parts); got != c.want {
			t.Errorf("partMean(%v, %v) = %v, want %v", c.xs, c.parts, got, c.want)
		}
	}
}
