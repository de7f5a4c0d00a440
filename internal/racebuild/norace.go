//go:build !race

package racebuild

// Enabled is true in a -race build.
const Enabled = false
