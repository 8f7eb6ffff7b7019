package parallel

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	cases := []struct{ p, n, want int }{
		{0, 10, 1}, {-3, 10, 1}, {1, 10, 1}, {4, 10, 4}, {16, 4, 4}, {4, 0, 4},
	}
	for _, c := range cases {
		if got := Workers(c.p, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

// forEach runs the pool with no context to cancel and no timing hook.
func forEach(n, p int, fn func(i int)) {
	ForEachTimedCtx(context.Background(), n, p, fn, nil) //nolint:errcheck // a background context never cancels
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, p := range []int{0, 1, 4, 16, 100} {
		const n = 500
		var hits [n]atomic.Int32
		forEach(n, p, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("p=%d: index %d visited %d times", p, i, got)
			}
		}
	}
	forEach(0, 4, func(int) { t.Fatal("fn called for n=0") })
}

func TestForEachSequentialOrder(t *testing.T) {
	var order []int
	forEach(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("sequential order broken: %v", order)
		}
	}
}

func TestChunksPartition(t *testing.T) {
	for _, c := range []struct{ n, p int }{{10, 3}, {10, 1}, {3, 10}, {0, 4}, {7, 7}, {1000, 12}} {
		chunks := Chunks(c.n, c.p)
		next := 0
		for _, ch := range chunks {
			if ch.Lo != next || ch.Hi <= ch.Lo {
				t.Fatalf("n=%d p=%d: bad chunk %+v (expected Lo=%d)", c.n, c.p, ch, next)
			}
			next = ch.Hi
		}
		if next != c.n {
			t.Fatalf("n=%d p=%d: chunks cover %d items", c.n, c.p, next)
		}
		if c.n > 0 && len(chunks) > Workers(c.p, c.n) {
			t.Fatalf("n=%d p=%d: %d chunks exceed worker count", c.n, c.p, len(chunks))
		}
	}
}
