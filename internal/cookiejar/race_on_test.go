//go:build race

package cookiejar

// raceEnabled skips allocation ceilings: under the race detector
// sync.Pool drops a share of what is put back on purpose, so pooled
// paths allocate.
const raceEnabled = true
