package main

import "testing"

// TestMigrationEndToEnd executes the example end-to-end, then checks its
// point: migrating with the resolved sticky set prefetched must leave the
// thread fewer post-migration faults than a cold migration.
func TestMigrationEndToEnd(t *testing.T) {
	main()
	cold, warm := run(false), run(true)
	coldFaults := cold.faultsAfter - cold.faultsBefore
	warmFaults := warm.faultsAfter - warm.faultsBefore
	if warm.outcome.PrefetchObjs == 0 || warmFaults >= coldFaults {
		t.Fatalf("prefetch moved %d objects, faults %d vs cold %d", warm.outcome.PrefetchObjs, warmFaults, coldFaults)
	}
}
