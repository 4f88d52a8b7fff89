package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// model is a trivial memory with the semantics Memory must have: a map
// of pages accessed one byte at a time, with no page cache and no
// page-sized copies.
type model struct {
	pages  map[uint64]*[PageSize]byte
	strict bool
	limit  int
}

func newModel() *model { return &model{pages: map[uint64]*[PageSize]byte{}} }

// touch makes addr's page resident or reports the fault an access to it
// raises.
func (d *model) touch(addr uint64, write, allocate bool) error {
	pn := addr >> PageBits
	if d.pages[pn] != nil {
		return nil
	}
	if d.strict && !allocate {
		return &AccessFault{Addr: addr, Write: write}
	}
	if d.limit > 0 && len(d.pages) >= d.limit {
		return &ResourceFault{Addr: addr, Write: write, Pages: len(d.pages), Limit: d.limit}
	}
	d.pages[pn] = new([PageSize]byte)
	return nil
}

func (d *model) byteAt(addr uint64) *byte { return &d.pages[addr>>PageBits][addr&pageMask] }

func (d *model) read(addr uint64, size int) (uint64, error) {
	if size > 1 && addr%uint64(size) != 0 {
		return 0, &AlignmentFault{Addr: addr, Size: size}
	}
	if err := d.touch(addr, false, false); err != nil {
		return 0, err
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(*d.byteAt(addr + uint64(i)))
	}
	return v, nil
}

func (d *model) write(addr uint64, size int, v uint64) error {
	if size > 1 && addr%uint64(size) != 0 {
		return &AlignmentFault{Addr: addr, Size: size}
	}
	if err := d.touch(addr, true, false); err != nil {
		return err
	}
	for i := 0; i < size; i++ {
		*d.byteAt(addr + uint64(i)) = byte(v >> (8 * i))
	}
	return nil
}

func (d *model) read8s(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		v, err := d.read(addr+uint64(i), 1)
		if err != nil {
			return nil, err
		}
		out[i] = byte(v)
	}
	return out, nil
}

func (d *model) write8s(addr uint64, b []byte) error {
	for i, v := range b {
		if err := d.write(addr+uint64(i), 1, uint64(v)); err != nil {
			return err
		}
	}
	return nil
}

func (d *model) mapRange(addr, size uint64) error {
	if size == 0 {
		return nil
	}
	if addr+size-1 < addr {
		return &RangeError{Addr: addr, Size: size}
	}
	for pn := addr >> PageBits; pn <= (addr+size-1)>>PageBits; pn++ {
		if err := d.touch(pn<<PageBits, true, true); err != nil {
			return err
		}
	}
	return nil
}

func (d *model) snapshot() map[uint64][PageSize]byte {
	out := make(map[uint64][PageSize]byte, len(d.pages))
	for pn, p := range d.pages {
		out[pn] = *p
	}
	return out
}

func (d *model) loadSnapshot(pages map[uint64][PageSize]byte) {
	d.pages = make(map[uint64]*[PageSize]byte, len(pages))
	for pn, p := range pages {
		p := p
		d.pages[pn] = &p
	}
}

// sameSnapshot compares two snapshots page by page.
func sameSnapshot(a, b map[uint64][PageSize]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for pn, p := range a {
		if q, ok := b[pn]; !ok || p != q {
			return false
		}
	}
	return true
}

// TestPageCacheDifferential drives random sequences of every access
// kind, Map, LoadSnapshot and Strict/Limit changes through a Memory and
// the byte-map model and requires identical values, faults (type and
// fields) and contents. The address pool sits on a few adjacent pages,
// page boundaries and the top of the address space, so accesses share
// and cross pages and snapshots drop pages that a cache entry names.
func TestPageCacheDifferential(t *testing.T) {
	const top = ^uint64(0)
	pool := []uint64{0, PageSize, 2 * PageSize, 3 * PageSize, 7 * PageSize, top - PageSize + 1}
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m, d := New(), newModel()
			var saved map[uint64][PageSize]byte
			addr := func() uint64 {
				base := pool[rng.Intn(len(pool))]
				switch rng.Intn(3) {
				case 0: // near the start of the page
					return base + uint64(rng.Intn(16))
				case 1: // near the end of the previous page
					return base - uint64(rng.Intn(16)) - 1
				}
				return base + uint64(rng.Intn(PageSize))
			}
			for step := 0; step < 2000; step++ {
				var desc string
				var got, want any
				var gotErr, wantErr error
				switch op := rng.Intn(14); op {
				case 0, 1, 2, 3, 4:
					a := addr()
					size := []int{1, 2, 4, 8, 4}[op]
					if rng.Intn(4) != 0 {
						a &^= uint64(size - 1)
					}
					desc = fmt.Sprintf("read%d %#x", size*8, a)
					want, wantErr = d.read(a, size)
					var v uint64
					switch op {
					case 0:
						var b byte
						b, gotErr = m.Read8(a)
						v = uint64(b)
					case 1:
						var h uint16
						h, gotErr = m.Read16(a)
						v = uint64(h)
					case 2:
						var w uint32
						w, gotErr = m.Read32(a)
						v = uint64(w)
					case 3:
						v, gotErr = m.Read64(a)
					case 4:
						desc = fmt.Sprintf("fetch32 %#x", a)
						var w uint32
						w, gotErr = m.Fetch32(a)
						v = uint64(w)
					}
					got = v
				case 5, 6, 7, 8:
					a := addr()
					size := []int{1, 2, 4, 8}[op-5]
					if rng.Intn(4) != 0 {
						a &^= uint64(size - 1)
					}
					v := rng.Uint64()
					desc = fmt.Sprintf("write%d %#x", size*8, a)
					wantErr = d.write(a, size, v)
					switch size {
					case 1:
						gotErr = m.Write8(a, byte(v))
					case 2:
						gotErr = m.Write16(a, uint16(v))
					case 4:
						gotErr = m.Write32(a, uint32(v))
					case 8:
						gotErr = m.Write64(a, v)
					}
				case 9:
					a, n := addr(), rng.Intn(2*PageSize+PageSize/2)
					desc = fmt.Sprintf("read8s %#x+%d", a, n)
					got, gotErr = m.Read8s(a, n)
					want, wantErr = d.read8s(a, n)
				case 10:
					a := addr()
					b := make([]byte, rng.Intn(2*PageSize+PageSize/2))
					rng.Read(b)
					desc = fmt.Sprintf("write8s %#x+%d", a, len(b))
					gotErr, wantErr = m.Write8s(a, b), d.write8s(a, b)
				case 11:
					a, n := addr(), uint64(rng.Intn(3*PageSize))
					desc = fmt.Sprintf("map %#x+%d", a, n)
					gotErr, wantErr = m.Map(a, n), d.mapRange(a, n)
				case 12:
					if saved == nil || rng.Intn(2) == 0 {
						desc = "snapshot"
						saved = m.Snapshot()
						if !sameSnapshot(saved, d.snapshot()) {
							t.Fatalf("step %d: contents differ from the model", step)
						}
						break
					}
					desc = "load snapshot"
					m.LoadSnapshot(saved)
					d.loadSnapshot(saved)
				case 13:
					m.Strict = rng.Intn(2) == 0
					m.Limit = 0
					if rng.Intn(2) == 0 {
						m.Limit = m.PageCount() + rng.Intn(3)
					}
					d.strict, d.limit = m.Strict, m.Limit
					desc = fmt.Sprintf("strict=%v limit=%d", m.Strict, m.Limit)
				}
				if !reflect.DeepEqual(gotErr, wantErr) {
					t.Fatalf("step %d %s: err %v, model %v", step, desc, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d %s: got %v, model %v", step, desc, got, want)
				}
				if m.PageCount() != len(d.pages) {
					t.Fatalf("step %d %s: %d pages, model %d", step, desc, m.PageCount(), len(d.pages))
				}
			}
			if !sameSnapshot(m.Snapshot(), d.snapshot()) {
				t.Fatal("final contents differ from the model")
			}
		})
	}
}

// TestLoadSnapshotDropsCachedPages pins the stale-entry case directly:
// a page cached by data access and by fetch is dropped by LoadSnapshot,
// after which Strict accesses to it must fault and a surviving page
// must read the snapshot's bytes, not the old page's.
func TestLoadSnapshotDropsCachedPages(t *testing.T) {
	m := New()
	if err := m.Write32(0, 0x11111111); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if err := m.Write32(0, 0x22222222); err != nil {
		t.Fatal(err)
	}
	if err := m.Write32(PageSize, 0x33333333); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fetch32(PageSize); err != nil {
		t.Fatal(err)
	}
	m.LoadSnapshot(snap)
	m.Strict = true
	var af *AccessFault
	if _, err := m.Read32(PageSize); !errors.As(err, &af) {
		t.Fatalf("read of a dropped page: %v, want *AccessFault", err)
	}
	if _, err := m.Fetch32(PageSize); !errors.As(err, &af) {
		t.Fatalf("fetch of a dropped page: %v, want *AccessFault", err)
	}
	if v, err := m.Read32(0); err != nil || v != 0x11111111 {
		t.Fatalf("restored page reads %#x, %v; want the snapshot's 0x11111111", v, err)
	}
}

// TestWrite8sPartialFailure checks that a chunked Write8s failing on its
// second page leaves the first page written and names the first byte of
// the failing page, as a byte-by-byte loop would.
func TestWrite8sPartialFailure(t *testing.T) {
	m := New()
	m.Strict = true
	if err := m.Map(0, PageSize); err != nil {
		t.Fatal(err)
	}
	b := bytes.Repeat([]byte{0xAB}, 32)
	err := m.Write8s(PageSize-16, b)
	var af *AccessFault
	if !errors.As(err, &af) || af.Addr != PageSize || !af.Write {
		t.Fatalf("Write8s across into an unmapped page: %v", err)
	}
	got, err := m.Read8s(PageSize-16, 16)
	if err != nil || !bytes.Equal(got, b[:16]) {
		t.Fatalf("first page after partial Write8s = %x, %v", got, err)
	}
	if _, err := m.Read8s(PageSize-16, 32); !errors.As(err, &af) || af.Addr != PageSize || af.Write {
		t.Fatalf("Read8s across into an unmapped page: %v", err)
	}
}

// TestMapRejectsWrappingRange checks that a range running past 2^64
// maps nothing and fails with a RangeError.
func TestMapRejectsWrappingRange(t *testing.T) {
	m := New()
	err := m.Map(^uint64(0)-15, 32)
	var re *RangeError
	if !errors.As(err, &re) || re.Addr != ^uint64(0)-15 || re.Size != 32 {
		t.Fatalf("wrapping Map: %v, want *RangeError", err)
	}
	if m.PageCount() != 0 {
		t.Fatalf("wrapping Map mapped %d pages", m.PageCount())
	}
	if err := m.Map(^uint64(0)-15, 16); err != nil {
		t.Fatalf("Map ending at 2^64-1: %v", err)
	}
}
