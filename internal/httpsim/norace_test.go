//go:build !race

package httpsim

const raceEnabled = false
