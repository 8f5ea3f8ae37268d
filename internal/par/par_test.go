package par

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 3, 200} {
			counts := make([]atomic.Int32, n)
			Do(n, workers, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestDoOneWorkerRunsInlineInOrder(t *testing.T) {
	caller := goid()
	var order []int
	Do(7, 1, func(i int) {
		if g := goid(); g != caller {
			t.Errorf("index %d ran on goroutine %s, want the caller's %s", i, g, caller)
		}
		order = append(order, i)
	})
	if len(order) != 7 {
		t.Fatalf("ran %d of 7 indexes", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("inline order %v, want ascending", order)
		}
	}
}
