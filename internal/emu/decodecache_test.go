package emu_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/vm"
)

const guestBudget = 100000

// selfPatchGuest runs a 300-iteration loop whose first instruction,
// "addq v0,#1,v0" at 0x10100, is overwritten with "addq v0,#2,v0" by an
// stl after 150 iterations. Decoding the new word gives v0 = 450; a
// stale decode gives 300.
func selfPatchGuest(t *testing.T) string {
	w, err := alpha.EncodeOperateL(alpha.OpADDQ, alpha.RegV0, 2, alpha.RegV0)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`
	.text 0x10000
	.entry start
start:
	lda  a0, 300(zero)
	clr  v0
	ldiq t1, 0x10100
	ldiq t2, %d
	br   loop
	.text 0x10100
loop:
	addq  v0, #1, v0
	subq  a0, #1, a0
	cmpeq a0, #150, t3
	beq   t3, skip
	stl   t2, 0(t1)
skip:
	bne   a0, loop
	call_pal halt
`, uint32(w))
}

// aliasGuest runs a loop whose two halves sit exactly DecodeSlots
// instructions apart, so every instruction of one half shares its decode
// slot with a different word of the other. v0 counts by 1 and t0 by 3.
func aliasGuest() string {
	const loop = 0x10100
	return fmt.Sprintf(`
	.text 0x10000
	.entry start
start:
	lda  a0, 100(zero)
	clr  v0
	clr  t0
	br   loop
	.text %#x
loop:
	addq v0, #1, v0
	br   far
back:
	subq a0, #1, a0
	bne  a0, loop
	call_pal halt
	.text %#x
far:
	addq t0, #3, t0
	br   back
`, loop, loop+4*emu.DecodeSlots)
}

// refRun is the reference interpreter: it reads and decodes the word at
// PC afresh on every step, with no decode cache.
func refRun(t *testing.T, prog *alphaprog.Program) *emu.CPU {
	t.Helper()
	c := emu.New(mem.New())
	if err := c.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	for !c.Halted {
		if c.InstCount >= guestBudget {
			t.Fatal("reference run did not halt within the budget")
		}
		w, err := c.Mem.Read32(c.PC)
		if err != nil {
			t.Fatalf("reference fetch: %v", err)
		}
		inst := alpha.Decode(alpha.Word(w))
		if err := c.Exec(&inst); err != nil {
			t.Fatalf("reference run: %v", err)
		}
	}
	return c
}

// sameState compares everything a guest can observe.
func sameState(t *testing.T, what string, got, want *emu.CPU) {
	t.Helper()
	if got.PC != want.PC || got.Reg != want.Reg || got.InstCount != want.InstCount ||
		got.Halted != want.Halted || got.ExitStatus != want.ExitStatus {
		t.Errorf("%s: pc %#x insts %d halted %v regs %v\nwant pc %#x insts %d halted %v regs %v",
			what, got.PC, got.InstCount, got.Halted, got.Reg,
			want.PC, want.InstCount, want.Halted, want.Reg)
	}
	if got.ConsoleString() != want.ConsoleString() {
		t.Errorf("%s: console %q, want %q", what, got.ConsoleString(), want.ConsoleString())
	}
	if ok, addr := mem.Equal(got.Mem, want.Mem); !ok {
		t.Errorf("%s: memory differs at %#x", what, addr)
	}
}

// TestDecodeCacheMatchesReference runs each guest on the slot-cached
// interpreter and on the VM with translation out of reach (hot threshold
// above the run length), and compares both against the reference loop.
func TestDecodeCacheMatchesReference(t *testing.T) {
	guests := []struct {
		name string
		src  string
		want map[alpha.Reg]uint64 // registers that show the guest ran as written
	}{
		{"self-patch", selfPatchGuest(t), map[alpha.Reg]uint64{alpha.RegV0: 450, alpha.RegA0: 0}},
		{"alias", aliasGuest(), map[alpha.Reg]uint64{alpha.RegV0: 100, alpha.RegT0: 300}},
	}
	for _, g := range guests {
		t.Run(g.name, func(t *testing.T) {
			prog := alphaasm.MustAssemble(g.src)
			want := refRun(t, prog)
			for r, v := range g.want {
				if want.Reg[r] != v {
					t.Fatalf("reference run: %v = %d, want %d", r, want.Reg[r], v)
				}
			}

			c := emu.New(mem.New())
			if err := c.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			if err := c.Run(guestBudget); err != nil {
				t.Fatalf("interpreter: %v", err)
			}
			sameState(t, "interpreter", c, want)

			cfg := vm.DefaultConfig()
			cfg.HotThreshold = 1 << 30
			v := vm.New(mem.New(), cfg)
			if err := v.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			if err := v.Run(guestBudget); err != nil {
				t.Fatalf("interpret-only VM: %v", err)
			}
			if v.Stats.TransVInsts != 0 || v.Stats.InterpInsts != want.InstCount {
				t.Errorf("VM translated: interp %d, trans %d", v.Stats.InterpInsts, v.Stats.TransVInsts)
			}
			sameState(t, "interpret-only VM", v.CPU(), want)
		})
	}
}

// TestFetchFaultIsPrecise checks that a fetch from an unmapped page in
// Strict mode traps at the PC with the fetch's access fault, through the
// same slot-cached path.
func TestFetchFaultIsPrecise(t *testing.T) {
	m := mem.New()
	m.Strict = true
	c := emu.New(m)
	c.PC = 0x40000
	err := c.Run(10)
	var trap *emu.Trap
	var af *mem.AccessFault
	if !errors.As(err, &trap) || trap.PC != 0x40000 || !errors.As(err, &af) || af.Addr != 0x40000 || af.Write {
		t.Fatalf("fetch from unmapped page: %v", err)
	}
}

// TestLoadProgramRejectsWrappingSegment checks that a segment running
// past 2^64 is refused before any byte is written, so its tail never
// lands on address 0.
func TestLoadProgramRejectsWrappingSegment(t *testing.T) {
	prog := &alphaprog.Program{Segments: []alphaprog.Segment{
		{Addr: 0, Data: make([]byte, 16)},
		{Addr: 0xFFFF_FFFF_FFFF_FFF0, Data: bytes.Repeat([]byte{0xAA}, 32)},
	}}
	c := emu.New(mem.New())
	err := c.LoadProgram(prog)
	var re *mem.RangeError
	if !errors.As(err, &re) {
		t.Fatalf("LoadProgram of a wrapping segment: %v, want *mem.RangeError", err)
	}
	if b, _ := c.Mem.Read8s(0, 16); !bytes.Equal(b, make([]byte, 16)) {
		t.Fatalf("address 0 overwritten: %x", b)
	}
}
