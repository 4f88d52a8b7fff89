package flight

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/translate"
)

// goldenBundle is a fixed bundle touching every encoded field. Its
// config is spelled out rather than captured from vm.DefaultConfig, so
// a change of defaults cannot move the digest.
func goldenBundle(faults *faultinject.Config) *Bundle {
	return &Bundle{
		Kind:  KindResource,
		VPC:   0x1_0040,
		Cause: "memory resource fault at 0x80000",
		Config: VMConfig{
			Form: ildp.Modified, NumAcc: 4, Chain: translate.SWPredRAS,
			Straighten: true, FuseMemOps: true, TCacheBytes: 1 << 20, MaxPages: 64,
			Verify: true, SemCheck: true, Paranoid: true, SelfHeal: true,
			RetryBudget: 3, WatchdogWindow: 1 << 16, HotThreshold: 50,
			MaxSuperblock: 200, RASSize: 16,
		},
		Faults:     faults,
		Budget:     20_000,
		Program:    []byte{1, 2, 3, 4, 5},
		Checkpoint: []byte("ckpt"),
		Counters:   map[string]uint64{"stats.InterpInsts": 42, "stats.TransVInsts": 7, "stats.Zero": 0},
		Events:     []string{"admitted", "", "governed"},
	}
}

// TestEncodeGoldenDigest pins the bundle bytes across commits, with and
// without a fault schedule. The round-trip tests and the fuzzer only
// check that Encode and Decode agree with each other, which a
// consistent change to both sides still passes.
func TestEncodeGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults *faultinject.Config
		want   string
	}{
		{"no-faults", nil, "f5686f68252cd503ab1db566caf0786d9d017eae5c9d247930a860cbf4335759"},
		{"faults", &faultinject.Config{
			Seed: 7, EntryRate: 16, TranslateRate: 4, MaxFaults: 9,
			Kinds: []faultinject.Kind{faultinject.KindBitFlip, faultinject.KindEvict},
		}, "93b6957cdb7d7f71ceb83df2903fe1c2a9c452f74733f24e76b9795bff6fc6e7"},
	} {
		sum := sha256.Sum256(Encode(goldenBundle(tc.faults)))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: Encode digest %s, want %s: the bundle byte layout changed", tc.name, got, tc.want)
		}
	}
}
