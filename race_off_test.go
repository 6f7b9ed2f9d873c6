//go:build !race

package distlock_test

const raceEnabled = false
