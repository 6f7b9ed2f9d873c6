//go:build !race

package netlock

const raceEnabled = false
