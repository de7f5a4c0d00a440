//go:build !race

package matrix

// raceEnabled is set in a -race build; see race_test.go.
const raceEnabled = false
