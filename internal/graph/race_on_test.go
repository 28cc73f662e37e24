//go:build race

package graph

// raceEnabled trims the exhaustive differential sweeps under the race
// detector, which slows the reference implementation ~10×; the
// unsampled sweeps run in the plain test build.
const raceEnabled = true
