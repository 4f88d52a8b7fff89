package flight

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"testing"

	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/vm"
)

// fuzzSeedBundle is a small bundle touching every encoded section:
// config, fault schedule, program, checkpoint, counters and events.
func fuzzSeedBundle() *Bundle {
	cfg := vm.DefaultConfig()
	cfg.MaxPages = 64
	cfg.Paranoid = true
	return &Bundle{
		Kind:       KindResource,
		VPC:        0x10040,
		Cause:      "memory resource fault",
		Config:     CaptureConfig(cfg),
		Faults:     &faultinject.Config{Seed: 7, EntryRate: 16, Kinds: []faultinject.Kind{faultinject.KindBitFlip}},
		Budget:     20_000,
		Program:    []byte{1, 2, 3, 4},
		Checkpoint: []byte("ckpt"),
		Counters:   map[string]uint64{"stats.InterpInsts": 42, "stats.TransVInsts": 7},
		Events:     []string{"admitted", "governed"},
	}
}

// reseal appends a valid checksum to data, so the fuzzer's mutations
// reach the structural decoder instead of stopping at the checksum.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	return binary.LittleEndian.AppendUint64(out, crc64.Checksum(data, crcTable))
}

// FuzzFlightDecode: arbitrary bytes either decode to a bundle whose
// re-encoding is byte-identical, or fail with a typed *Error and no
// bundle — never a panic. Each input is tried as given and resealed
// with a valid checksum.
func FuzzFlightDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	valid := Encode(fuzzSeedBundle())
	f.Add(valid)
	f.Add(valid[:len(valid)-8]) // the payload, for reseal
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Add(Encode(&Bundle{Kind: KindTrap, Counters: map[string]uint64{}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			got, err := Decode(in)
			if err != nil {
				if got != nil {
					t.Fatal("Decode returned both a bundle and an error")
				}
				var fe *Error
				if !errors.As(err, &fe) {
					t.Fatalf("untyped decode error %T: %v", err, err)
				}
				continue
			}
			if got == nil {
				t.Fatal("Decode returned neither bundle nor error")
			}
			if !bytes.Equal(Encode(got), in) {
				t.Fatalf("accepted stream is not canonical: Encode(Decode(b)) != b (%d bytes)", len(in))
			}
		}
	})
}
