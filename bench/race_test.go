//go:build race

package main

// raceEnabled reports a race-detector build, which runs the smoke
// workloads about eight times slower.
const raceEnabled = true
