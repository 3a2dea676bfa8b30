//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation slows the toy
// runs past the time limit the smoke test holds them to.
const raceEnabled = true
