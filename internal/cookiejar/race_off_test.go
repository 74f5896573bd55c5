//go:build !race

package cookiejar

const raceEnabled = false
