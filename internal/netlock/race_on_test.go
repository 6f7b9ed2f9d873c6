//go:build race

package netlock

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// what is put back at random: allocation ceilings that rely on pooling
// are looser there.
const raceEnabled = true
