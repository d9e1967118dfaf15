package engine

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestLRUMatchesModel drives caches of several capacities with random
// gets and adds over a small key space and checks every answer and the
// recency order against a plain slice model, most recent last.
func TestLRUMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8} {
		rng := rand.New(rand.NewPCG(1, uint64(capacity)))
		c := newLRU[int, int](capacity)
		var model []lruEntry[int, int]
		find := func(k int) int {
			return slices.IndexFunc(model, func(e lruEntry[int, int]) bool { return e.key == k })
		}
		for op := 0; op < 2000; op++ {
			k := rng.IntN(12)
			if rng.IntN(2) == 0 {
				v, ok := c.get(k)
				i := find(k)
				if ok != (i >= 0) || ok && v != model[i].val {
					t.Fatalf("cap %d op %d: get(%d) = %d, %v; model %v", capacity, op, k, v, ok, model)
				}
				if i >= 0 {
					e := model[i]
					model = append(slices.Delete(model, i, i+1), e)
				}
			} else {
				v := rng.Int()
				c.add(k, v)
				if i := find(k); i >= 0 {
					model = slices.Delete(model, i, i+1)
				}
				model = append(model, lruEntry[int, int]{k, v})
				if len(model) > capacity {
					model = model[1:]
				}
			}
			if got := c.entries(); !slices.Equal(got, model) || c.len() != len(model) {
				t.Fatalf("cap %d op %d: entries %v, len %d; model %v", capacity, op, got, c.len(), model)
			}
		}
	}
}
