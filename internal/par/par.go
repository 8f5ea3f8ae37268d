// Package par runs independent, indexed units of work on a bounded pool
// of goroutines. It is the one worker pool of the experiment path: grid
// cells run on it through internal/sweep.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls fn(i) exactly once for every i in [0, n) on at most workers
// goroutines; workers <= 0 selects GOMAXPROCS. Indexes are handed out in
// ascending order, and each goroutine takes the next one as soon as its
// current call returns. With one worker, fn runs inline on the calling
// goroutine, in order. Do returns after every call has returned.
func Do(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
