package alphaprog

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/ildp/accdbt/internal/mem"
)

func TestImageRoundTrip(t *testing.T) {
	p := &Program{
		Entry: 0x10000,
		Segments: []Segment{
			{Addr: 0x10000, Data: []byte{1, 2, 3, 4}},
			{Addr: 0x20000, Data: []byte{5, 6}},
		},
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != p.Entry || len(got.Segments) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for i := range p.Segments {
		if got.Segments[i].Addr != p.Segments[i].Addr ||
			!bytes.Equal(got.Segments[i].Data, p.Segments[i].Data) {
			t.Errorf("segment %d differs", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not an image"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated after the header.
	p := &Program{Entry: 1, Segments: []Segment{{Addr: 0, Data: make([]byte, 100)}}}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:30]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated image accepted")
	}
}

func TestNormalizeDetectsOverlap(t *testing.T) {
	p := &Program{Segments: []Segment{
		{Addr: 0x100, Data: make([]byte, 16)},
		{Addr: 0x108, Data: make([]byte, 16)},
	}}
	if p.Normalize() {
		t.Error("overlap not detected")
	}
	q := &Program{Segments: []Segment{
		{Addr: 0x200, Data: make([]byte, 8)},
		{Addr: 0x100, Data: make([]byte, 8)},
	}}
	if !q.Normalize() {
		t.Error("disjoint segments rejected")
	}
	if q.Segments[0].Addr != 0x100 {
		t.Error("segments not sorted")
	}
	if q.TotalBytes() != 16 {
		t.Errorf("TotalBytes = %d", q.TotalBytes())
	}
}

// wrapImage is the image of a segment that runs 16 bytes past 2^64 plus
// a segment at address 0 that its tail would overwrite.
func wrapImage(t testing.TB) []byte {
	p := &Program{Segments: []Segment{
		{Addr: 0, Data: make([]byte, 16)},
		{Addr: 0xFFFF_FFFF_FFFF_FFF0, Data: bytes.Repeat([]byte{0xAA}, 32)},
	}}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsWrappingSegment(t *testing.T) {
	if _, err := Load(bytes.NewReader(wrapImage(t))); !errors.Is(err, ErrBadImage) {
		t.Fatalf("wrapping segment: err = %v, want ErrBadImage", err)
	}
	// A segment ending exactly at the top of the address space is fine.
	top := &Program{Segments: []Segment{
		{Addr: 0, Data: make([]byte, 16)},
		{Addr: 0xFFFF_FFFF_FFFF_FFF0, Data: make([]byte, 16)},
	}}
	if !top.Normalize() {
		t.Error("segment ending at 2^64-1 rejected")
	}
	// Overlap detection must not overflow either: a segment near the top
	// overlapping its successor is still an overlap.
	hi := &Program{Segments: []Segment{
		{Addr: 0xFFFF_FFFF_FFFF_FF00, Data: make([]byte, 0x20)},
		{Addr: 0xFFFF_FFFF_FFFF_FF10, Data: make([]byte, 8)},
	}}
	if hi.Normalize() {
		t.Error("overlap near 2^64 not detected")
	}
}

// FuzzImageLoad feeds arbitrary bytes to Load. It must never panic; an
// error must wrap ErrBadImage; a successful load must round-trip through
// Save and must map and store into a memory without wrapping.
func FuzzImageLoad(f *testing.F) {
	var buf bytes.Buffer
	p := &Program{Entry: 0x10000, Segments: []Segment{
		{Addr: 0x10000, Data: []byte{1, 2, 3, 4}},
		{Addr: 0x20000, Data: []byte{5, 6}},
	}}
	if err := p.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(wrapImage(f))
	f.Add([]byte("ACCDBT1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("error %v does not wrap ErrBadImage", err)
			}
			return
		}
		var out bytes.Buffer
		if err := p.Save(&out); err != nil {
			t.Fatal(err)
		}
		q, err := Load(&out)
		if err != nil {
			t.Fatalf("saved image does not reload: %v", err)
		}
		if !reflect.DeepEqual(normalized(p), normalized(q)) {
			t.Fatalf("round trip changed the program:\n got %+v\nwant %+v", q, p)
		}
		m := mem.New()
		for _, s := range p.Segments {
			if err := m.Map(s.Addr, uint64(len(s.Data))); err != nil {
				t.Fatalf("loaded segment at %#x does not map: %v", s.Addr, err)
			}
			if err := m.Write8s(s.Addr, s.Data); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range p.Segments {
			got, err := m.Read8s(s.Addr, len(s.Data))
			if err != nil || !bytes.Equal(got, s.Data) {
				t.Fatalf("segment at %#x reads back %x, %v; another segment overwrote it", s.Addr, got, err)
			}
		}
	})
}

// normalized maps nil segment data to empty, which Save and Load do not
// distinguish.
func normalized(p *Program) *Program {
	q := &Program{Entry: p.Entry}
	for _, s := range p.Segments {
		q.Segments = append(q.Segments, Segment{Addr: s.Addr, Data: append([]byte{}, s.Data...)})
	}
	return q
}
