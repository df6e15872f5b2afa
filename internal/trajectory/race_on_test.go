//go:build race

package trajectory

// raceEnabled reports whether the race detector instruments this test
// binary. Its per-access cost falls unevenly on the two sides of a time
// ratio, so ratio guards skip their time check under it.
const raceEnabled = true
