//go:build race

package server_test

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops items at random: allocation
// bounds skip themselves under it.
const raceEnabled = true
