//go:build race

package kernels

// raceEnabled is set in a -race build, where sync.Pool drops a quarter of
// what it is handed, by design, so a warm-pool allocation budget cannot hold.
const raceEnabled = true
