//go:build race

package metastore

// raceEnabled reports whether this test binary was built with the race
// detector; the §6.3 throughput floor applies only without it.
const raceEnabled = true
