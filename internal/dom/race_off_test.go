//go:build !race

package dom

const raceEnabled = false
