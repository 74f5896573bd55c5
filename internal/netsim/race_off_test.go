//go:build !race

package netsim

const raceEnabled = false
