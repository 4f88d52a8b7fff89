// Package faultinject is a deterministic, seed-driven fault injector for
// chaos-testing the co-designed VM's recovery machinery. It decides — at
// well-defined decision points the VM consults it from — whether to
// corrupt an installed fragment, fail or poison a translation, force a
// mid-run cache flush, raise a spurious trap at a fragment entry, or
// shrink the code cache so capacity pressure evicts under execution.
//
// The injector only *decides and corrupts*; the VM applies the fault and
// performs the recovery (see vm.Config.Faults). Every decision comes from
// an internal/rng splitmix64 stream seeded by Config.Seed, so a fault
// schedule is a pure function of the seed: replaying a seed replays the
// exact same faults at the exact same decision points, which is what
// lets the differential chaos oracle (internal/experiments) demand
// bit-identical architected state against a pure-interpreter run.
package faultinject

import (
	"fmt"
	"strings"

	"github.com/ildp/accdbt/internal/rng"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/translate"
)

// Kind is one fault class.
type Kind uint8

const (
	// KindNone is the no-fault decision.
	KindNone Kind = iota
	// KindBitFlip corrupts a random field of a random installed fragment
	// (instruction stream or PEI table). Recovery: the paranoid entry
	// re-check detects the tampering, invalidates the fragment, and falls
	// back to interpretation.
	KindBitFlip
	// KindFailTranslate makes the next translation fail with an injected
	// error. Recovery: retranslate-with-backoff, then quarantine.
	KindFailTranslate
	// KindPoisonTranslate corrupts the next translation result before it
	// is installed. Recovery: the install-time verifier rejects it and
	// the VM treats it as a failed translation.
	KindPoisonTranslate
	// KindEvict flushes the whole translation cache at a fragment entry —
	// including entries reached from *inside* translated code, so stale
	// fragment links are exercised. Recovery: dispatch/lookup misses
	// retranslate; stale links exit to the VM.
	KindEvict
	// KindSpuriousTrap raises a spurious (non-architectural) trap at a
	// fragment entry. Recovery: the entry is abandoned and the VM
	// interprets from the same V-PC; no state is lost.
	KindSpuriousTrap
	// KindShrinkCache halves the code-cache capacity (floored at 4 KiB),
	// so subsequent installs flush under pressure.
	KindShrinkCache

	numKinds
)

// NumKinds is the number of injectable fault kinds (excluding KindNone).
const NumKinds = int(numKinds) - 1

var kindNames = [numKinds]string{
	"none", "bitflip", "fail_translate", "poison_translate",
	"evict", "spurious_trap", "shrink_cache",
}

// String returns the lower-case kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindByName parses a kind name as printed by String.
func KindByName(name string) (Kind, error) {
	for k := Kind(1); k < numKinds; k++ {
		if kindNames[k] == name {
			return k, nil
		}
	}
	return KindNone, fmt.Errorf("faultinject: unknown fault kind %q", name)
}

// AllKinds returns every injectable kind.
func AllKinds() []Kind {
	out := make([]Kind, 0, NumKinds)
	for k := Kind(1); k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// entryKinds and translateKinds partition the kinds by the decision point
// they can fire at.
var entryKinds = []Kind{KindBitFlip, KindEvict, KindSpuriousTrap, KindShrinkCache}
var translateKinds = []Kind{KindFailTranslate, KindPoisonTranslate}

// Counts is the number of faults applied, by kind.
type Counts [numKinds]uint64

// Total returns the total applied faults.
func (c Counts) Total() uint64 {
	var n uint64
	for _, v := range c {
		n += v
	}
	return n
}

// String renders the non-zero counts, e.g. "bitflip=3 evict=1".
func (c Counts) String() string {
	var parts []string
	for k := Kind(1); k < numKinds; k++ {
		if c[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, c[k]))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// ErrInjected is the cause attached to injected translation failures, so
// recovery accounting can tell injected faults from genuine ones.
type ErrInjected struct {
	Kind Kind
	Seq  uint64 // fault sequence number within the schedule
}

func (e *ErrInjected) Error() string {
	return fmt.Sprintf("faultinject: injected %s fault #%d", e.Kind, e.Seq)
}

// Config parameterises a fault schedule.
type Config struct {
	// Seed selects the schedule; equal seeds produce equal schedules.
	Seed uint64
	// EntryRate is the mean fragment entries between entry-point faults
	// (bitflip/evict/spurious/shrink). Default 64.
	EntryRate int
	// TranslateRate is the mean translations between translation faults
	// (fail/poison). Default 8 — translations are much rarer than entries.
	TranslateRate int
	// Kinds restricts the schedule to the listed kinds (nil = all).
	Kinds []Kind
	// MaxFaults caps the number of faults applied (0 = unlimited).
	MaxFaults int
}

// Injector is one deterministic fault schedule. It is not safe for
// concurrent use; a nil *Injector is a valid "injection disabled"
// injector (every decision returns KindNone).
type Injector struct {
	cfg     Config
	rng     rng.SplitMix64
	enabled [numKinds]bool

	decisions uint64
	applied   Counts
}

// New builds an injector for the given schedule.
func New(cfg Config) *Injector {
	if cfg.EntryRate <= 0 {
		cfg.EntryRate = 64
	}
	if cfg.TranslateRate <= 0 {
		cfg.TranslateRate = 8
	}
	in := &Injector{cfg: cfg, rng: rng.SplitMix64(cfg.Seed)}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = AllKinds()
	}
	for _, k := range kinds {
		if k > KindNone && k < numKinds {
			in.enabled[k] = true
		}
	}
	return in
}

// decide draws one decision: fire with probability 1/rate, choosing
// uniformly among the enabled members of pool.
func (in *Injector) decide(rate int, pool []Kind) Kind {
	if in == nil {
		return KindNone
	}
	in.decisions++
	if in.cfg.MaxFaults > 0 && in.applied.Total() >= uint64(in.cfg.MaxFaults) {
		return KindNone
	}
	draw := in.rng.Next()
	if draw%uint64(rate) != 0 {
		return KindNone
	}
	var candidates []Kind
	for _, k := range pool {
		if in.enabled[k] {
			candidates = append(candidates, k)
		}
	}
	if len(candidates) == 0 {
		return KindNone
	}
	return candidates[in.rng.Next()%uint64(len(candidates))]
}

// EntryFault is consulted at every fragment entry (top-level and chained)
// and returns the fault to apply there, or KindNone.
func (in *Injector) EntryFault() Kind { return in.decide(in.entryRate(), entryKinds) }

// TranslateFault is consulted once per superblock translation and returns
// the fault to apply to it, or KindNone.
func (in *Injector) TranslateFault() Kind { return in.decide(in.translateRate(), translateKinds) }

func (in *Injector) entryRate() int {
	if in == nil {
		return 1
	}
	return in.cfg.EntryRate
}

func (in *Injector) translateRate() int {
	if in == nil {
		return 1
	}
	return in.cfg.TranslateRate
}

// Applied records that the VM actually applied a fault of the given kind
// (a decision whose application found no viable site is not counted) and
// returns the injected-fault sequence number.
func (in *Injector) Applied(k Kind) uint64 {
	if in == nil || k == KindNone || k >= numKinds {
		return 0
	}
	in.applied[k]++
	return in.applied.Total()
}

// Counts returns the faults applied so far, by kind.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.applied
}

// Decisions returns the number of decision points consulted.
func (in *Injector) Decisions() uint64 {
	if in == nil {
		return 0
	}
	return in.decisions
}

// PickFragment chooses the corruption target among n installed fragments
// (-1 when the cache is empty).
func (in *Injector) PickFragment(n int) int {
	if in == nil || n <= 0 {
		return -1
	}
	return int(in.rng.Next() % uint64(n))
}

// CorruptFragment flips one field of the fragment — a single-bit
// perturbation of a random instruction field or PEI-table entry — and
// returns whether a change was made. The change is always detectable by
// the VM's paranoid entry re-check (any byte of the installed image
// differs from the install-time pristine copy), which is what makes the
// fault recoverable before the corrupted code can execute.
func (in *Injector) CorruptFragment(f *tcache.Fragment) bool {
	if in == nil || f == nil || len(f.Insts) == 0 {
		return false
	}
	sites := len(f.Insts) + len(f.PEI)
	site := int(in.rng.Next() % uint64(sites))
	if site >= len(f.Insts) {
		f.PEI[site-len(f.Insts)] ^= 1 << (in.rng.Next() % 48)
		return true
	}
	inst := f.Insts[site]
	switch in.rng.Next() % 6 {
	case 0:
		inst.VAddr ^= 1 << (in.rng.Next() % 48)
	case 1:
		inst.Disp ^= 1 << (in.rng.Next() % 16)
	case 2:
		inst.Dest ^= 1 << (in.rng.Next() % 5)
	case 3:
		inst.Op ^= 1 << (in.rng.Next() % 6)
	case 4:
		inst.VPC ^= 1 << (in.rng.Next() % 48)
	default:
		inst.Acc ^= 1 << (in.rng.Next() % 3)
	}
	// Through the cache's own entry point, so the fragment's lowered
	// code runs the damaged instruction too.
	f.SetInst(site, inst)
	return true
}

// CorruptResult perturbs a translation result before installation the
// same way CorruptFragment perturbs an installed fragment, plus a
// size-accounting corruption so even metadata-only damage is provable by
// the install-time verifier.
func (in *Injector) CorruptResult(res *translate.Result) bool {
	if in == nil || res == nil || len(res.Insts) == 0 {
		return false
	}
	if res.Straightened {
		// Straightened fragments carry no I-ISA invariants for the
		// verifier to reject; poison is not applicable.
		return false
	}
	switch in.rng.Next() % 3 {
	case 0:
		// Corrupt the recorded code size: rule E5 (size-class) fires.
		res.CodeBytes += 2
	case 1:
		// Truncate the PEI table: rule P1 fires.
		if len(res.PEI) == 0 {
			res.CodeBytes += 2
			break
		}
		res.PEI = res.PEI[:len(res.PEI)-1]
		if len(res.PEIRecover) > 0 {
			res.PEIRecover = res.PEIRecover[:len(res.PEIRecover)-1]
		}
	default:
		// Break the set-VPC prologue: rule C1 fires.
		if len(res.Insts) == 0 {
			res.CodeBytes += 2
			break
		}
		res.Insts[0].VAddr += 4
	}
	return true
}
