package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenDigest is the SHA-256 of Encode(sampleState()). The round-trip
// tests and the fuzzer only check that Encode and Decode agree with
// each other, which a consistent change to both sides still passes;
// this constant pins the bytes themselves across commits.
const goldenDigest = "04919525b46d9e27a470e6019c5f9b0edfd0960e7cf11ac6a11538fdf1465f37"

func TestEncodeGoldenDigest(t *testing.T) {
	sum := sha256.Sum256(Encode(sampleState()))
	if got := hex.EncodeToString(sum[:]); got != goldenDigest {
		t.Fatalf("Encode digest %s, want %s: the checkpoint byte layout changed", got, goldenDigest)
	}
}
