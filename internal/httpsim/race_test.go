//go:build race

package httpsim

// raceEnabled: a -race build allocates differently from the program
// (a 16-hop chain request reads 81.15 allocations under it, 81.14
// without), so allocation counts under -race are not the program's.
const raceEnabled = true
