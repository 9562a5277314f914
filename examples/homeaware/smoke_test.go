package main

import "testing"

// TestHomeAwareEndToEnd executes the example end-to-end: a distributed-TCM
// Water-Spatial run, the home-aware placement plan and the home-migration
// advice must complete without panicking.
func TestHomeAwareEndToEnd(t *testing.T) {
	main()
}
