//go:build race

// Package racebuild reports whether the binary was built with the race
// detector. Under it sync.Pool drops a quarter of what it is handed, by
// design, so an allocation budget that counts on pooled scratch coming back
// must count that scratch as allocated instead.
package racebuild

// Enabled is true in a -race build.
const Enabled = true
