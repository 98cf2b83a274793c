//go:build !race

package netrun

const raceEnabled = false
