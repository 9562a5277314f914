package main

import "testing"

// TestNBodyEndToEnd executes the example end-to-end: the adaptive rate
// controller over a Barnes-Hut run, then a balancer plan over the
// converged map, must complete without panicking.
func TestNBodyEndToEnd(t *testing.T) {
	main()
}
