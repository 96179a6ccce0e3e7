//go:build !race

package app

const raceEnabled = false
