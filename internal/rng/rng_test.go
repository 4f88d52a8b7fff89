package rng

import "testing"

// TestSplitMix64KnownAnswer checks the first outputs of seed 0 against
// the published splitmix64 reference values.
func TestSplitMix64KnownAnswer(t *testing.T) {
	var s SplitMix64
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := s.Next(); got != want {
			t.Fatalf("output %d = %#x, want %#x", i, got, want)
		}
	}
}
