//go:build !race

package kernels

// raceEnabled is set in a -race build; see race_test.go.
const raceEnabled = false
