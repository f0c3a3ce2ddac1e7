//go:build race

package repro

// raceEnabled is true in a -race build: see raceMovedRows.
const raceEnabled = true
