package tcache_test

import (
	"fmt"
	"testing"
	"unsafe"

	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// lockstep checks every change to lowered code as it happens: after
// each install, exit patch, un-patch by Invalidate and SetInst, the
// changed fragment's code must equal a fresh lowering of its
// instructions.
type lockstep struct {
	changes int
	err     error
}

func (l *lockstep) watch(t *testing.T) {
	t.Cleanup(tcache.SetCodeChanged(func(f *tcache.Fragment) {
		l.changes++
		if err := f.CheckCode(); err != nil && l.err == nil {
			l.err = err
		}
	}))
}

// checkLive checks every live fragment of the cache at the end of a run,
// flushes included.
func (l *lockstep) checkLive(t *testing.T, label string, tc *tcache.Cache) {
	t.Helper()
	if l.err != nil {
		t.Fatalf("%s: %v", label, l.err)
	}
	for id := 0; id < tc.Len(); id++ {
		if f := tc.Frag(int32(id)); f != nil {
			if err := f.CheckCode(); err != nil {
				t.Fatalf("%s at end of run: %v", label, err)
			}
		}
	}
}

// TestLoweredLockstep runs the 12 stand-ins under both ISA forms and all
// three chaining modes, with a translation cache small enough to flush,
// then the chaos seeds of the CI smoke, whose bit flips go through
// SetInst and whose recoveries invalidate and un-patch. Each change to
// any fragment's lowered code must leave it equal to a fresh lowering.
func TestLoweredLockstep(t *testing.T) {
	var l lockstep
	l.watch(t)

	var patches, flushes int
	for _, wl := range workload.All(1) {
		prog := wl.MustProgram()
		for _, form := range []ildp.Form{ildp.Basic, ildp.Modified} {
			for _, chain := range []translate.ChainMode{translate.NoPred, translate.SWPred, translate.SWPredRAS} {
				label := fmt.Sprintf("%s/%v/%v", wl.Name, form, chain)
				cfg := vm.DefaultConfig()
				cfg.Form, cfg.Chain = form, chain
				cfg.HotThreshold = 10
				cfg.TCacheBytes = 4 << 10
				v := vm.New(mem.New(), cfg)
				if err := v.LoadProgram(prog); err != nil {
					t.Fatal(err)
				}
				if err := v.Run(50_000_000); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				tc := v.TCache()
				l.checkLive(t, label, tc)
				patches += tc.Patches
				flushes += tc.Flushes
			}
		}
	}
	if patches == 0 || flushes == 0 {
		t.Errorf("stand-in sweep made %d patches and %d flushes; it must exercise both", patches, flushes)
	}

	gzip, err := workload.ByName("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	var flips, invalidates uint64
	for seed := uint64(1001); seed <= 1004; seed++ {
		var tc *tcache.Cache
		var inj *faultinject.Injector
		out, err := experiments.RunChaos(experiments.ChaosSpec{
			Workload: gzip, Machine: experiments.ILDPModified, Seed: seed,
			EntryRate: 16, TranslateRate: 4, MaxV: 50_000_000,
			Attach: func(v *vm.VM) { tc, inj = v.TCache(), v.Injector() },
		})
		if err != nil {
			t.Fatalf("chaos seed %d: %v", seed, err)
		}
		if out.Mismatch != "" {
			t.Fatalf("chaos seed %d diverged: %s", seed, out.Mismatch)
		}
		l.checkLive(t, fmt.Sprintf("chaos seed %d", seed), tc)
		flips += inj.Counts()[faultinject.KindBitFlip]
		invalidates += uint64(tc.Invalidates)
	}
	if flips == 0 || invalidates == 0 {
		t.Errorf("chaos seeds made %d bit flips and %d invalidations; they must exercise both", flips, invalidates)
	}
	t.Logf("%d code changes checked: %d patches, %d flushes, %d bit flips, %d invalidations",
		l.changes, patches, flushes, flips, invalidates)
}

// TestOpSize pins the lowered op at 16 bytes: the lowered code's heap
// cost is its size times the installed instructions.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(tcache.Op{}); got != 16 {
		t.Errorf("tcache.Op is %d bytes, want 16", got)
	}
}
