package codec_test

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/codec"
	"github.com/ildp/accdbt/internal/flight"
	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/mem"
)

// framed is one codec under test: a valid encoding and its decoder.
type framed struct {
	name   string
	enc    []byte
	decode func([]byte) error
}

func codecs() []framed {
	st := &checkpoint.State{
		PC:       0x1000,
		Console:  []byte("hi"),
		Counters: map[string]uint64{"stats.InterpInsts": 3},
		Pages:    map[uint64][mem.PageSize]byte{2: {7}},
	}
	bu := &flight.Bundle{
		Kind:     flight.KindTrap,
		VPC:      0x1004,
		Program:  []byte{1, 2, 3},
		Counters: map[string]uint64{"stats.InterpInsts": 3},
		Events:   []string{"trap"},
	}
	return []framed{
		{"checkpoint", checkpoint.Encode(st), func(b []byte) error {
			_, err := checkpoint.Decode(b)
			return err
		}},
		{"fragstore", fragstore.New().Encode(), func(b []byte) error {
			_, _, err := fragstore.Decode(b, fragstore.LoadOptions{})
			return err
		}},
		{"flight", flight.Encode(bu), func(b []byte) error {
			_, err := flight.Decode(b)
			return err
		}},
	}
}

// reseal recomputes the trailer over a mutated stream.
func reseal(b []byte) []byte {
	binary.LittleEndian.PutUint64(b[len(b)-8:], codec.Checksum(b[:len(b)-8]))
	return b
}

// mutate returns a copy of enc with f applied.
func mutate(enc []byte, f func([]byte) []byte) []byte {
	return f(append([]byte(nil), enc...))
}

// TestFrameCheckOrder applies the same frame-level damage to each
// codec's valid encoding and requires the same typed failure class from
// all three: one frame, one check order.
func TestFrameCheckOrder(t *testing.T) {
	for _, c := range codecs() {
		if err := c.decode(c.enc); err != nil {
			t.Fatalf("%s: valid encoding rejected: %v", c.name, err)
		}
		for n := 0; n < len(c.enc); n++ {
			var ce *codec.Error
			if err := c.decode(c.enc[:n]); !errors.As(err, &ce) {
				t.Fatalf("%s: %d-byte prefix: got %v, want a *codec.Error", c.name, n, err)
			}
		}
		for _, tc := range []struct {
			damage string
			b      []byte
			want   error
		}{
			{"magic flip", mutate(c.enc, func(b []byte) []byte { b[0] ^= 0x20; return b }), codec.ErrBadMagic},
			{"version flip, stale checksum", mutate(c.enc, func(b []byte) []byte { b[8] ^= 0x02; return b }), codec.ErrChecksum},
			{"version skew, resealed", mutate(c.enc, func(b []byte) []byte { b[8]++; return reseal(b) }), codec.ErrVersion},
			{"trailer flip", mutate(c.enc, func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }), codec.ErrChecksum},
			{"appended byte", mutate(c.enc, func(b []byte) []byte { return append(b, 0) }), nil},
		} {
			err := c.decode(tc.b)
			var ce *codec.Error
			if !errors.As(err, &ce) {
				t.Errorf("%s: %s: got %v, want a *codec.Error", c.name, tc.damage, err)
				continue
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("%s: %s: got %v, want %v", c.name, tc.damage, err, tc.want)
			}
			if prefix := c.name + ": "; !strings.HasPrefix(err.Error(), prefix) {
				t.Errorf("%s: %s: message %q lacks the %q prefix", c.name, tc.damage, err, prefix)
			}
		}
	}
}

// TestReaderSticky checks that the first failure wins: a canonical-form
// check after a failed read cannot replace ErrTruncated, and every read
// after a failure yields a zero value.
func TestReaderSticky(t *testing.T) {
	r := codec.NewReader("test", []byte{1, 2})
	if v := r.U32("field"); v != 0 {
		t.Fatalf("failed read returned %d, want 0", v)
	}
	r.Fail(codec.ErrCanonical, "checked after the failed read")
	if v := r.U8("next"); v != 0 {
		t.Fatalf("read after failure returned %d, want 0", v)
	}
	err := r.End()
	if !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("first failure was replaced: %v", err)
	}
	if got, want := err.Error(), "test: truncated at offset 0: field wants 4 bytes, 2 remain"; got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
}
