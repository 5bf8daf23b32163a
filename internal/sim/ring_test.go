package sim

import (
	"slices"
	"testing"
)

// TestRingCompactFromFirstDropped checks compaction against the plain
// filter it stands for, on a ring whose contents wrap around the buffer
// and extend past the visible window.
func TestRingCompactFromFirstDropped(t *testing.T) {
	states := make([]jobState, 24)
	for _, tc := range []struct {
		name    string
		visible int
		drop    []int // ascending; drop[0] is the first dropped position
	}{
		{"head only", 8, []int{0}},
		{"middle run", 8, []int{3, 4, 6}},
		{"last visible", 8, []int{7}},
		{"whole window, tail slides down", 8, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"window covers the queue", 20, []int{5, 19}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q ringQueue
			// Six fronts after the backs put the head near the end of
			// the 32-slot buffer, so positions wrap.
			for i := 6; i < 20; i++ {
				q.pushBack(&states[i])
			}
			for i := 5; i >= 0; i-- {
				q.pushFront(&states[i])
			}
			dropped := make([]bool, tc.visible)
			for _, pos := range tc.drop {
				dropped[pos] = true
			}
			var want []*jobState
			for i := 0; i < q.len(); i++ {
				if i >= tc.visible || !dropped[i] {
					want = append(want, q.at(i))
				}
			}
			q.compact(tc.drop[0], tc.visible, dropped)
			got := make([]*jobState, q.len())
			for i := range got {
				got[i] = q.at(i)
			}
			if !slices.Equal(got, want) {
				t.Errorf("after compact: got %d entries %v, want %d entries %v", len(got), got, len(want), want)
			}
		})
	}
}
