//go:build !race

package testutil

// RaceEnabled reports whether the race detector is compiled in. The
// allocation gates skip under -race — the detector instruments
// allocation accounting and sync.Pool drops puts at random, so
// AllocsPerRun is not meaningful there — and the large simulated fleets
// scale themselves down, since every memory access costs an order of
// magnitude more.
const RaceEnabled = false
