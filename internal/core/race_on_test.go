//go:build race

package core

// raceEnabled reports a -race build: the brute-force sweeps run at a
// reduced scale there, and at full scale in the plain test run.
const raceEnabled = true
