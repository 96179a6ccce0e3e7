package meshlayer

import (
	"runtime"
	"sync"
)

// MaxParallel bounds how many simulation runs the experiment sweeps
// execute concurrently. Every run in a sweep is an independent,
// single-threaded simulation — a pure function of its configuration and
// seed with no package-level state — so runs can proceed on separate
// goroutines while results land at their input index. Output is
// therefore byte-identical at any parallelism level; set to 1 (or run
// cmd/meshbench with -parallel 1) to force sequential execution.
var MaxParallel = runtime.GOMAXPROCS(0)

// runIndexed executes fn(0..n-1) on a bounded worker pool of up to
// MaxParallel goroutines and returns when all calls have finished. fn
// must write its result only to slots owned by index i — never to
// state shared across indices.
func runIndexed(n int, fn func(i int)) {
	workers := MaxParallel
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// sweepRows runs fn(0..n-1) on the runIndexed pool and returns the
// results in index order: the one-row-per-arm shape most sweeps have.
func sweepRows[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	runIndexed(n, func(i int) { out[i] = fn(i) })
	return out
}
