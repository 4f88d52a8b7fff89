package alpha

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// decodeDigest is the FNV-64a digest of every decoded field over the
// sweep in TestDecodeDigest. It was computed with the map-driven decoder
// that preceded the fixed decode tables, so it pins the decoder's full
// behaviour independently of Encode: FuzzDecode only checks that Decode
// and Encode agree, which a consistently wrong shared table would pass.
const decodeDigest uint64 = 0x283c273f53ce86ae

// TestDecodeDigest decodes every primary opcode with every 7-bit
// function code (register and literal forms), every 16-bit opcode-0x18
// function, every opcode-0x1A displacement (jump kind and hint), and a
// fixed pseudo-random field sweep, and hashes every decoded field.
func TestDecodeDigest(t *testing.T) {
	h := fnv.New64a()
	var buf [22]byte
	n := 0
	add := func(w Word) {
		d := Decode(w)
		le := binary.LittleEndian
		le.PutUint32(buf[0:], uint32(d.Raw))
		le.PutUint16(buf[4:], uint16(d.Op))
		buf[6] = byte(d.Format)
		buf[7], buf[8], buf[9] = byte(d.Ra), byte(d.Rb), byte(d.Rc)
		le.PutUint32(buf[10:], uint32(d.Disp))
		buf[14] = d.Lit
		buf[15] = 0
		if d.UseLit {
			buf[15] = 1
		}
		le.PutUint32(buf[16:], d.PALFn)
		le.PutUint16(buf[20:], d.Hint)
		h.Write(buf[:])
		n++
	}
	// Fixed register fields: ra=5, rb=18, rc=29, and literal 0xA7 in the
	// literal form, so every field lands somewhere visible.
	for opc := uint32(0); opc < 64; opc++ {
		for fn := uint32(0); fn < 128; fn++ {
			add(Word(opc<<26 | 5<<21 | 18<<16 | fn<<5 | 29))
			add(Word(opc<<26 | 5<<21 | 0xA7<<13 | 1<<12 | fn<<5 | 29))
		}
	}
	for fn := uint32(0); fn < 1<<16; fn++ {
		add(Word(opcMISC<<26 | 7<<21 | 11<<16 | fn))
		add(Word(opcJSR<<26 | 26<<21 | 27<<16 | fn))
	}
	// splitmix64: a fixed, self-contained sequence.
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 1<<16; i++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		add(Word(z))
		add(Word(z >> 32))
	}
	if want := 64*128*2 + 2<<16 + 2<<16; n != want {
		t.Fatalf("sweep decoded %d words, want %d", n, want)
	}
	if got := h.Sum64(); got != decodeDigest {
		t.Fatalf("decode digest %#x, want %#x: Decode changed behaviour", got, decodeDigest)
	}
}
