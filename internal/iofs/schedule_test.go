package iofs

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// scheduleDigest is the SHA-256 of the fault kinds, sequence numbers and
// read lengths of TestScheduleDigest's fixed operation sequence. It pins
// the seed-driven I/O fault schedule across commits.
const scheduleDigest = "fd5e4aac31e2b996802c5cc658bb988c2f5d9352fbc2df393098cd129bf9e861"

func TestScheduleDigest(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaulty(OS{}, Config{Seed: 7, Rate: 3})
	name := filepath.Join(dir, "f.bin")
	if err := (OS{}).WriteFile(name, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < 128; i++ {
		werr := fsys.WriteFile(name, []byte("payload payload payload"), 0o644)
		data, rerr := fsys.ReadFile(name)
		nerr := fsys.Rename(name, name)
		for _, err := range []error{werr, rerr, nerr} {
			var fault *Fault
			if err != nil && !errors.As(err, &fault) {
				t.Fatalf("operation %d: unexpected non-injected error %v", i, err)
			}
		}
		fmt.Fprintf(h, "%s|%s|%d|%s\n", errString(werr), errString(rerr), len(data), errString(nerr))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != scheduleDigest {
		t.Fatalf("schedule digest %s, want %s: the seed-7 I/O fault schedule changed", got, scheduleDigest)
	}
}
