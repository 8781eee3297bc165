//go:build race

package testutil

// RaceEnabled: see race_off.go.
const RaceEnabled = true
