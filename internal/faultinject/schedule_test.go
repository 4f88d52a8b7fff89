package faultinject

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// scheduleDigest is the SHA-256 of the first 256 EntryFault,
// TranslateFault and PickFragment results of New(Config{Seed: 7}).
// Flight bundles record only the seed of a fault schedule, so the
// generator behind it is part of what makes a bundle replay; this
// constant pins it across commits.
const scheduleDigest = "5f89ea8a57f86368a75dfbfd73914d3aa9d27691adce6b25b012fe3d41b071ba"

func TestScheduleDigest(t *testing.T) {
	in := New(Config{Seed: 7})
	var b []byte
	for i := 0; i < 256; i++ {
		b = append(b, byte(in.EntryFault()), byte(in.TranslateFault()))
		b = binary.LittleEndian.AppendUint32(b, uint32(in.PickFragment(1000)))
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != scheduleDigest {
		t.Fatalf("schedule digest %s, want %s: the seed-7 fault schedule changed", got, scheduleDigest)
	}
}
