//go:build race

package httpsim

// raceEnabled: the race detector drops sync.Pool items at random, so
// allocation counts under -race say nothing about the code.
const raceEnabled = true
