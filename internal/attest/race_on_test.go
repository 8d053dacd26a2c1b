//go:build race

package attest

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a random share of what is put back, so allocation counts of pooled code
// are not stable under it.
const raceEnabled = true
