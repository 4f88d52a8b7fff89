package fragstore

// On-disk format of the fragment store (docs/FORMAT.md specifies it
// byte for byte). It is an internal/codec frame, like the checkpoint:
// fixed-width little-endian fields, sorted canonical ordering, CRC-64
// guards, typed *codec.Error failures, and Encode(Decode(b)) == b for
// every stream Decode accepts without dropping an entry.
//
// The stream is guarded at two granularities. A whole-file CRC rejects
// transport corruption outright (Decode fails with codec.ErrChecksum).
// Inside an intact file, each entry carries its own CRC, its
// content-record hash must reproduce its key, and its fragment must
// re-pass the static verifier — an entry failing any of those is
// dropped and counted in the LoadReport, never installed, while the
// rest of the file loads.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/codec"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/iverify"
	"github.com/ildp/accdbt/internal/semcheck"
	"github.com/ildp/accdbt/internal/translate"
)

// Version is the current fragment-store format version.
const Version = 1

// frame is the fragment-store stream's framing.
var frame = codec.Frame{
	Name:    "fragstore",
	Magic:   [8]byte{'A', 'C', 'C', 'D', 'B', 'T', 'F', 'S'},
	Version: Version,
}

// LoadOptions controls Decode's re-verification of loaded entries.
type LoadOptions struct {
	// SemCheck additionally re-proves every loaded accumulator fragment
	// symbolically equivalent to its stored source superblock
	// (internal/semcheck); entries with counterexamples are dropped.
	SemCheck bool
}

// LoadReport accounts for every entry of a decoded stream: each one is
// either admitted to the store or dropped for a counted reason.
type LoadReport struct {
	// Entries is the number of entries present in the stream; Loaded
	// the number admitted after re-verification.
	Entries int
	Loaded  int

	// Verified counts entries proved by the static fragment verifier;
	// Skipped counts straightened entries, which carry no I-ISA
	// invariants for it to check. Proved counts entries additionally
	// proved by semcheck (only when LoadOptions.SemCheck is set).
	Verified int
	Skipped  int
	Proved   int

	// Drop reasons: entry CRC mismatch, key does not hash its content
	// record, malformed entry body, static-verifier violation, semcheck
	// counterexample.
	DroppedCRC       int
	DroppedKey       int
	DroppedMalformed int
	DroppedVerify    int
	DroppedProve     int
}

// Dropped returns the total number of dropped entries.
func (r *LoadReport) Dropped() int {
	return r.DroppedCRC + r.DroppedKey + r.DroppedMalformed + r.DroppedVerify + r.DroppedProve
}

// String renders the report as a one-line summary.
func (r *LoadReport) String() string {
	return fmt.Sprintf("%d entries: %d loaded (%d verified, %d skipped, %d proved), %d dropped (crc %d, key %d, malformed %d, verify %d, prove %d)",
		r.Entries, r.Loaded, r.Verified, r.Skipped, r.Proved, r.Dropped(),
		r.DroppedCRC, r.DroppedKey, r.DroppedMalformed, r.DroppedVerify, r.DroppedProve)
}

// Encode serializes the store's completed entries into the versioned,
// CRC-guarded stream of docs/FORMAT.md. The output is canonical:
// entries sort by key within their shard, all integers are fixed-width
// little-endian, and encoding the same entries always yields identical
// bytes. Entries whose translation is still in flight are skipped.
func (s *Store) Encode() []byte {
	type flat struct {
		key     Key
		content []byte
		res     *translate.Result
	}
	var perShard [NumShards][]flat
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			select {
			case <-e.ready:
			default:
				continue
			}
			if e.err != nil {
				continue
			}
			perShard[i] = append(perShard[i], flat{k, e.content, e.res})
		}
		sh.mu.Unlock()
		sort.Slice(perShard[i], func(a, b int) bool {
			return bytes.Compare(perShard[i][a].key[:], perShard[i][b].key[:]) < 0
		})
		total += len(perShard[i])
	}

	return frame.Seal(func(b []byte) []byte {
		le := binary.LittleEndian
		b = le.AppendUint32(b, NumShards)
		b = le.AppendUint32(b, uint32(total))
		for i := range perShard {
			b = le.AppendUint32(b, uint32(len(perShard[i])))
			for _, f := range perShard[i] {
				body := make([]byte, 0, len(f.key)+len(f.content)+resultRecLen(f.res))
				body = append(body, f.key[:]...)
				body = append(body, f.content...)
				body = appendResult(body, f.res)
				b = codec.AppendBlob(b, body)
				b = le.AppendUint64(b, codec.Checksum(body))
			}
		}
		return b
	})
}

// Decode rebuilds a store from an Encode stream. Whole-file damage —
// bad magic, truncation, file-checksum mismatch, unknown version,
// non-canonical structure — fails with a typed *codec.Error and no
// store.
// Within an intact file, every entry is independently validated (entry
// CRC, key-to-content hash, structural well-formedness) and re-proved
// by the static fragment verifier (plus semcheck when opts.SemCheck is
// set) before it becomes visible; entries failing any check are dropped
// and counted in the LoadReport, which is returned even on error.
func Decode(b []byte, opts LoadOptions) (*Store, *LoadReport, error) {
	rep := &LoadReport{}
	r, err := frame.Open(b)
	if err != nil {
		return nil, rep, err
	}
	if n := r.U32("shard count"); n != NumShards {
		r.Fail(codec.ErrCanonical, "%d shards, want %d", n, NumShards)
	}
	totalOff := r.Off()
	total := r.U32("entry total")

	s := New()
	counted := uint32(0)
	for shardIdx := 0; shardIdx < NumShards && r.Err() == nil; shardIdx++ {
		count := r.U32("shard entry count")
		var prev Key
		for n := uint32(0); n < count && r.Err() == nil; n++ {
			counted++
			bodyOff := r.Off() + 4
			body := r.Blob("entry body")
			wantCRC := r.U64("entry checksum")
			if r.Err() != nil {
				break
			}
			rep.Entries++

			// Canonical placement checks use only the key prefix, so
			// they apply even to entries whose body is later dropped.
			if len(body) >= len(Key{}) {
				key := Key(body[:len(Key{})])
				if int(key[0])%NumShards != shardIdx {
					r.FailAt(bodyOff, codec.ErrCanonical, "key %v in shard %d, belongs in %d", key, shardIdx, int(key[0])%NumShards)
					break
				}
				if n > 0 && bytes.Compare(key[:], prev[:]) <= 0 {
					r.FailAt(bodyOff, codec.ErrCanonical, "key %v not strictly after %v", key, prev)
					break
				}
				prev = key
			}

			if codec.Checksum(body) != wantCRC {
				rep.DroppedCRC++
				continue
			}
			loadEntry(s, body, opts, rep)
		}
	}
	if counted != total {
		r.FailAt(totalOff, codec.ErrCanonical, "entry total %d, shard counts sum to %d", total, counted)
	}
	if err := r.End(); err != nil {
		return nil, rep, err
	}
	return s, rep, nil
}

// loadEntry validates one CRC-clean entry body and admits it to the
// store, or counts the drop reason in rep.
func loadEntry(s *Store, body []byte, opts LoadOptions, rep *LoadReport) {
	key, content, cfg, sb, res, ok := parseEntry(body)
	if !ok {
		rep.DroppedMalformed++
		return
	}
	if sha256.Sum256(content) != [sha256.Size]byte(key) {
		rep.DroppedKey++
		return
	}
	// Re-prove before the entry becomes visible: loaded artifacts are
	// never trusted on checksum alone.
	vrep := iverify.Verify(res, iverify.Config{
		Form:   cfg.Translate.Form,
		NumAcc: cfg.Translate.NumAcc,
		Chain:  cfg.Translate.Chain,
	})
	if !vrep.OK() {
		rep.DroppedVerify++
		return
	}
	if vrep.Skipped {
		rep.Skipped++
	} else {
		rep.Verified++
	}
	if opts.SemCheck && !res.Straightened {
		if !semcheck.Check(sb, res).OK() {
			rep.DroppedProve++
			return
		}
		rep.Proved++
	}
	s.insertLoaded(key, content, res)
	rep.Loaded++
}

// parseEntry parses an entry body: key ‖ content record (config record
// ‖ superblock record) ‖ result record. It reports ok=false for any
// structural violation — short fields, impossible enum values, length
// mismatch — without distinguishing causes; a malformed entry is
// dropped whatever the detail.
func parseEntry(body []byte) (key Key, content []byte, cfg Config, sb *translate.Superblock, res *translate.Result, ok bool) {
	d := codec.NewReader(frame.Name, body)
	kb := d.Take(len(Key{}), "key")
	if kb == nil {
		return key, nil, cfg, nil, nil, false
	}
	key = Key(kb)
	contentStart := d.Off()
	if cfg, ok = parseConfigRec(d); !ok {
		return key, nil, cfg, nil, nil, false
	}
	if sb, ok = parseSuperblockRec(d); !ok {
		return key, nil, cfg, nil, nil, false
	}
	content = body[contentStart:d.Off()]
	if res, ok = parseResultRec(d); !ok || d.End() != nil {
		return key, nil, cfg, nil, nil, false
	}
	return key, content, cfg, sb, res, true
}

// parseConfigRec parses the canonical config record and enforces its
// normalisation: a straightening record must zero the fields
// straightening ignores, and every enum must be in range.
func parseConfigRec(d *codec.Reader) (Config, bool) {
	rec := d.Take(configRecLen, "config record")
	if rec == nil {
		return Config{}, false
	}
	flags, form, numAcc, chain, fuse := rec[0], rec[1], rec[2], rec[3], rec[4]
	if flags > 1 || form > uint8(ildp.Modified) || chain > uint8(translate.SWPredRAS) || fuse > 1 {
		return Config{}, false
	}
	cfg := Config{
		Straighten: flags == 1,
		Translate: translate.Config{
			Form:       ildp.Form(form),
			NumAcc:     int(numAcc),
			Chain:      translate.ChainMode(chain),
			FuseMemOps: fuse == 1,
		},
	}
	if cfg.Straighten {
		if form != 0 || numAcc != 0 || fuse != 0 {
			return Config{}, false
		}
	} else if numAcc == 0 || int(numAcc) > ildp.MaxAccumulators {
		return Config{}, false
	}
	return cfg, true
}

// parseSuperblockRec parses the canonical superblock record
// (appendSuperblock's layout), rebuilding each instruction from its
// stored Alpha word.
func parseSuperblockRec(d *codec.Reader) (*translate.Superblock, bool) {
	sb := &translate.Superblock{StartPC: d.U64("start pc")}
	end := d.U8("end kind")
	sb.End = translate.EndKind(end)
	sb.NextPC = d.U64("next pc")
	n := d.Count("superblock instruction", sbInstRecLen)
	if d.Err() != nil || end > uint8(translate.EndTrap) || n == 0 {
		return nil, false
	}
	sb.Insts = make([]translate.SBInst, n)
	for i := range sb.Insts {
		si := &sb.Insts[i]
		si.PC = d.U64("pc")
		si.Inst = alpha.Decode(alpha.Word(d.U32("word")))
		flags := d.U8("taken flag")
		if flags > 1 {
			return nil, false
		}
		si.Taken = flags == 1
		si.PredTarget = d.U64("predicted target")
	}
	return sb, d.Err() == nil
}

// resultRecLen sizes the result record for preallocation.
func resultRecLen(res *translate.Result) int {
	n := 8 + 1 + 1 + 8*4 + 8 + 8*8 + 4 + len(res.Insts)*instRecLen +
		4 + 8*len(res.PEI) + 4 + 4 + 4*len(res.Strands) + 4 + 1 + len(res.EndLive)
	for _, rec := range res.PEIRecover {
		n += 1 + 2*len(rec)
	}
	for _, regs := range res.ExitLive {
		n += 1 + len(regs)
	}
	return n
}

// instRecLen is the encoded size of one I-ISA instruction record.
const instRecLen = 1 + 2 + 1 + 1 + 10 + 10 + 1 + 1 + 4 + 8 + 8 + 4 + 1 + 1 + 1

// appendResult appends the result record: every field of
// translate.Result in fixed order, fixed width, with slice lengths
// prefixed, so decode-then-encode reproduces the bytes exactly.
func appendResult(b []byte, res *translate.Result) []byte {
	b = binary.LittleEndian.AppendUint64(b, res.VStart)
	b = append(b, byte(res.Form))
	var flags byte
	if res.Straightened {
		flags = 1
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(res.SrcCount))
	b = binary.LittleEndian.AppendUint32(b, uint32(res.NOPCount))
	b = binary.LittleEndian.AppendUint32(b, uint32(res.BranchElims))
	b = binary.LittleEndian.AppendUint32(b, uint32(res.CopyCount))
	b = binary.LittleEndian.AppendUint32(b, uint32(res.SpillCount))
	b = binary.LittleEndian.AppendUint32(b, uint32(res.ChainCount))
	b = binary.LittleEndian.AppendUint32(b, uint32(res.CodeBytes))
	b = binary.LittleEndian.AppendUint32(b, uint32(res.SrcBytes))
	b = binary.LittleEndian.AppendUint64(b, uint64(res.Cost))
	for _, u := range res.Usage {
		b = binary.LittleEndian.AppendUint64(b, uint64(u))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.Insts)))
	for i := range res.Insts {
		b = appendInst(b, &res.Insts[i])
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.PEI)))
	for _, pc := range res.PEI {
		b = binary.LittleEndian.AppendUint64(b, pc)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.PEIRecover)))
	for _, rec := range res.PEIRecover {
		b = append(b, byte(len(rec)))
		for _, ra := range rec {
			b = append(b, byte(ra.Reg), byte(ra.Acc))
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.Strands)))
	for _, s := range res.Strands {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(s)))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.ExitLive)))
	for _, regs := range res.ExitLive {
		b = append(b, byte(len(regs)))
		for _, r := range regs {
			b = append(b, byte(r))
		}
	}
	b = append(b, byte(len(res.EndLive)))
	for _, r := range res.EndLive {
		b = append(b, byte(r))
	}
	return b
}

// appendInst appends one instruction record (instRecLen bytes).
func appendInst(b []byte, in *ildp.Inst) []byte {
	b = append(b, byte(in.Kind))
	b = append(b, byte(in.Op), byte(uint16(in.Op)>>8))
	b = append(b, byte(in.Acc))
	var flags byte
	if in.WritesAcc {
		flags = 1
	}
	b = append(b, flags)
	b = appendSrc(b, in.SrcA)
	b = appendSrc(b, in.SrcB)
	b = append(b, byte(in.Dest), byte(in.ArchDest))
	b = binary.LittleEndian.AppendUint32(b, uint32(in.Disp))
	b = binary.LittleEndian.AppendUint64(b, in.VPC)
	b = binary.LittleEndian.AppendUint64(b, in.VAddr)
	b = binary.LittleEndian.AppendUint32(b, uint32(in.Frag))
	b = append(b, byte(in.Class), byte(in.VCredit), byte(in.Usage))
	return b
}

// appendSrc appends one source-operand record (10 bytes).
func appendSrc(b []byte, s ildp.Src) []byte {
	b = append(b, byte(s.Kind), byte(s.Reg))
	return binary.LittleEndian.AppendUint64(b, uint64(s.Imm))
}

// parseResultRec parses the result record (appendResult's layout).
func parseResultRec(d *codec.Reader) (*translate.Result, bool) {
	res := &translate.Result{VStart: d.U64("vstart")}
	form := d.U8("form")
	flags := d.U8("straightened flag")
	if form > uint8(ildp.Modified) || flags > 1 {
		return nil, false
	}
	res.Form = ildp.Form(form)
	res.Straightened = flags == 1
	for _, dst := range []*int{&res.SrcCount, &res.NOPCount, &res.BranchElims,
		&res.CopyCount, &res.SpillCount, &res.ChainCount, &res.CodeBytes, &res.SrcBytes} {
		*dst = int(d.U32("size count"))
	}
	res.Cost = int64(d.U64("cost"))
	for i := range res.Usage {
		res.Usage[i] = int64(d.U64("usage"))
	}

	nInsts := d.Count("instruction", instRecLen)
	if d.Err() != nil || nInsts == 0 {
		return nil, false
	}
	res.Insts = make([]ildp.Inst, nInsts)
	for i := range res.Insts {
		if !parseInst(d, &res.Insts[i]) {
			return nil, false
		}
	}

	if nPEI := d.Count("PEI", 8); nPEI > 0 {
		res.PEI = make([]uint64, nPEI)
		for i := range res.PEI {
			res.PEI[i] = d.U64("PEI")
		}
	}

	if nRec := d.Count("PEI recovery list", 1); nRec > 0 {
		res.PEIRecover = make([][]translate.RegAcc, nRec)
		for i := range res.PEIRecover {
			m := d.U8("recovery list length")
			if d.Err() != nil || int(m)*2 > d.Remaining() {
				return nil, false
			}
			if m > 0 {
				rec := make([]translate.RegAcc, m)
				for j := range rec {
					r, a := d.U8("register"), d.U8("accumulator")
					if r >= alpha.NumRegs || int(a) >= ildp.MaxAccumulators {
						return nil, false
					}
					rec[j] = translate.RegAcc{Reg: alpha.Reg(r), Acc: ildp.AccID(a)}
				}
				res.PEIRecover[i] = rec
			}
		}
	}

	if nStrands := d.Count("strand", 4); nStrands > 0 {
		res.Strands = make([]int, nStrands)
		for i := range res.Strands {
			res.Strands[i] = int(int32(d.U32("strand")))
		}
	}

	if nExit := d.Count("exit live list", 1); nExit > 0 {
		res.ExitLive = make([][]alpha.Reg, nExit)
		for i := range res.ExitLive {
			regs, ok := parseRegList(d)
			if !ok {
				return nil, false
			}
			res.ExitLive[i] = regs
		}
	}

	endLive, ok := parseRegList(d)
	if !ok {
		return nil, false
	}
	res.EndLive = endLive

	// The per-VM cache may only patch NoFrag exits and dispatch stubs;
	// a stored fragment referencing a concrete fragment ID would leak
	// one session's private cache layout into the shared artifact.
	for i := range res.Insts {
		if f := res.Insts[i].Frag; f != ildp.NoFrag && f != ildp.FragDispatch {
			return nil, false
		}
	}
	return res, true
}

// parseInst parses one instruction record.
func parseInst(d *codec.Reader, in *ildp.Inst) bool {
	in.Kind = ildp.Kind(d.U8("kind"))
	lo, hi := d.U8("op"), d.U8("op")
	in.Op = alpha.Op(uint16(lo) | uint16(hi)<<8)
	in.Acc = ildp.AccID(d.U8("accumulator"))
	flags := d.U8("writes-acc flag")
	if flags > 1 {
		return false
	}
	in.WritesAcc = flags == 1
	parseSrc(d, &in.SrcA)
	parseSrc(d, &in.SrcB)
	in.Dest = alpha.Reg(d.U8("dest"))
	in.ArchDest = alpha.Reg(d.U8("arch dest"))
	in.Disp = int32(d.U32("disp"))
	in.VPC = d.U64("vpc")
	in.VAddr = d.U64("vaddr")
	in.Frag = int32(d.U32("frag"))
	in.Class = ildp.Class(d.U8("class"))
	in.VCredit = d.U8("v credit")
	in.Usage = ildp.UsageClass(d.U8("usage"))
	return d.Err() == nil
}

// parseSrc parses one source-operand record.
func parseSrc(d *codec.Reader, s *ildp.Src) {
	s.Kind = ildp.SrcKind(d.U8("src kind"))
	s.Reg = alpha.Reg(d.U8("src reg"))
	s.Imm = int64(d.U64("src imm"))
}

// parseRegList parses a u8-counted register list; zero count yields nil.
func parseRegList(d *codec.Reader) ([]alpha.Reg, bool) {
	m := d.U8("register count")
	if d.Err() != nil || int(m) > d.Remaining() {
		return nil, false
	}
	if m == 0 {
		return nil, true
	}
	regs := make([]alpha.Reg, m)
	for i := range regs {
		r := d.U8("register")
		if r >= alpha.NumRegs {
			return nil, false
		}
		regs[i] = alpha.Reg(r)
	}
	return regs, true
}
