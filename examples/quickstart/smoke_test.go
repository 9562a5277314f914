package main

import "testing"

// TestQuickstartEndToEnd executes the example exactly as a user would:
// the smallest public-API path (NewSession → Launch → AttachProfiling →
// Run → Report/TCM) must complete without panicking. The example's dataset is
// already quarter scale, so this stays fast enough for go test ./... .
func TestQuickstartEndToEnd(t *testing.T) {
	main()
}
