package fragstore_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenDigest is the SHA-256 of populate's store encoding. The
// round-trip tests and the fuzzer only check that Encode and Decode
// agree with each other, which a consistent change to both sides still
// passes; this constant pins the bytes themselves across commits. It
// also covers the translator's output for populate's superblocks, so a
// deliberate translator change must recompute it.
const goldenDigest = "ef686c5f418184a7446d5d88934e5ab8bcfb1b9acc72f119b66e8020d4957919"

func TestEncodeGoldenDigest(t *testing.T) {
	sum := sha256.Sum256(populate(t).Encode())
	if got := hex.EncodeToString(sum[:]); got != goldenDigest {
		t.Fatalf("Encode digest %s, want %s: the fragment-store byte layout changed", got, goldenDigest)
	}
}
