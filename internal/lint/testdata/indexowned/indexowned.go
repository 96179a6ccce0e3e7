// Package indexownedtest seeds violations for the indexowned analyzer.
package indexownedtest

// runIndexed mimics the root package's bounded worker pool: fn(i) runs
// concurrently for every index, so the analyzer inspects each closure
// literal handed to any function of this name.
func runIndexed(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

type result struct {
	lat   float64
	count int
}

// ownedWrites is the sanctioned pattern: every write lands in a slot
// addressed by the worker's own index, directly or derived.
func ownedWrites(out []result, halves []result) {
	runIndexed(2*len(out), func(k int) {
		i := k / 2 // derived from the index: still owned
		out[i].lat = float64(k)
		out[k/2].count++
		halves[i] = out[i]
		local := 0 // closure-local state is private
		local++
		_ = local
	})
}

// sharedWrites breaks ownership in every way the analyzer tracks.
func sharedWrites(out []result, byName map[string]int, results chan int) {
	total := 0
	var all []int
	runIndexed(len(out), func(i int) {
		total++              // want "runIndexed worker writes shared total without indexing by its worker index"
		all = append(all, i) // want "runIndexed worker writes shared all without indexing by its worker index"
		byName["x"] = i      // want "runIndexed worker writes shared byName without indexing by its worker index"
		out[0].count = i     // want "runIndexed worker writes shared out without indexing by its worker index"
		results <- i         // want "runIndexed worker sends on shared channel results"
	})
	_ = total
}

// allowed shows a justified exception: a commutative, mutex-guarded
// aggregate can tolerate unordered writes.
func allowed(out []result) {
	total := 0
	runIndexed(len(out), func(i int) {
		//meshvet:allow indexowned testdata fixture: commutative aggregate guarded elsewhere
		total += i
	})
	_ = total
}

// sweepRows mimics the root package's results-by-index wrapper over
// runIndexed; closures handed to it are workers too.
func sweepRows(n int, fn func(i int) result) []result {
	out := make([]result, n)
	runIndexed(n, func(i int) { out[i] = fn(i) })
	return out
}

// returnedRows is the wrapper's sanctioned use: the row is returned,
// nothing captured is written; a shared write is still flagged.
func returnedRows(n int) []result {
	total := 0
	return sweepRows(n, func(i int) result {
		total++ // want "runIndexed worker writes shared total without indexing by its worker index"
		return result{count: i}
	})
}
