// Package alphaprog defines the loadable program image shared between the
// assembler, workload generators, and the interpreter/VM.
package alphaprog

import "sort"

// Program is a memory image plus entry point.
type Program struct {
	Entry    uint64
	Segments []Segment
}

// Segment is a contiguous run of initialised bytes.
type Segment struct {
	Addr uint64
	Data []byte
}

// TotalBytes returns the total number of initialised bytes in the program.
func (p *Program) TotalBytes() int {
	n := 0
	for _, s := range p.Segments {
		n += len(s.Data)
	}
	return n
}

// Normalize sorts segments by address and reports whether they are
// disjoint: no two overlap, and none wraps past the top of the 64-bit
// address space (a wrapping segment's tail would land on address 0).
// The checks never compute an end address that could overflow.
func (p *Program) Normalize() bool {
	sort.Slice(p.Segments, func(i, j int) bool { return p.Segments[i].Addr < p.Segments[j].Addr })
	for i, cur := range p.Segments {
		if n := uint64(len(cur.Data)); n > 0 && cur.Addr+n-1 < cur.Addr {
			return false
		}
		if i > 0 {
			prev := p.Segments[i-1]
			if cur.Addr-prev.Addr < uint64(len(prev.Data)) {
				return false
			}
		}
	}
	return true
}
