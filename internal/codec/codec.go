// Package codec is the frame, reader and typed decode error shared by
// the repository's three binary formats: the checkpoint
// (internal/checkpoint), the shared fragment store (internal/fragstore)
// and the flight bundle (internal/flight). docs/FORMAT.md specifies
// each of them byte for byte.
//
// A frame is
//
//	magic (8 bytes) ‖ version (u32) ‖ body ‖ CRC-64/ECMA of all preceding bytes (u64)
//
// with every integer fixed-width little-endian. Open checks a frame in
// one order — magic, minimum length, checksum, version — so a flipped
// bit anywhere reports ErrChecksum rather than a misleading structural
// error, and a torn stream is never half-parsed.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"sort"
)

// Decode failure causes, matched with errors.Is against the returned
// *Error.
var (
	ErrBadMagic  = errors.New("bad magic")
	ErrVersion   = errors.New("unsupported version")
	ErrTruncated = errors.New("truncated")
	ErrChecksum  = errors.New("checksum mismatch")
	ErrCanonical = errors.New("non-canonical encoding")
	ErrTrailing  = errors.New("trailing bytes after checksum")
)

// Error is the typed decode failure: the frame being decoded, the byte
// offset where decoding stopped, the failure class (one of the Err
// sentinels), and detail.
type Error struct {
	Frame  string
	Off    int
	Cause  error
	Detail string
}

// Error renders the failure prefixed with its frame's name.
func (e *Error) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("%s: %v at offset %d", e.Frame, e.Cause, e.Off)
	}
	return fmt.Sprintf("%s: %v at offset %d: %s", e.Frame, e.Cause, e.Off, e.Detail)
}

// Unwrap exposes the failure class for errors.Is.
func (e *Error) Unwrap() error { return e.Cause }

var crcTable = crc64.MakeTable(crc64.ECMA)

// Checksum returns the CRC-64/ECMA of b, the checksum of every frame
// trailer and of each fragment-store entry.
func Checksum(b []byte) uint64 { return crc64.Checksum(b, crcTable) }

// Frame names one framed stream format.
type Frame struct {
	// Name prefixes every decode error ("checkpoint", "fragstore",
	// "flight").
	Name string
	// Magic opens every stream of the format.
	Magic [8]byte
	// Version is the one format version Open accepts.
	Version uint32
}

// headerLen is the magic and version; trailerLen the checksum.
const (
	headerLen  = 8 + 4
	trailerLen = 8
)

// Seal builds a frame: the magic and version, then whatever body
// appends to the slice it is given, then the checksum trailer.
func (f *Frame) Seal(body func(b []byte) []byte) []byte {
	b := append([]byte(nil), f.Magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, f.Version)
	b = body(b)
	return binary.LittleEndian.AppendUint64(b, Checksum(b))
}

// Open checks a sealed stream — magic (when at least 8 bytes are
// present), minimum length, checksum, then version — and returns a
// Reader over the body. Reader offsets count from the start of b.
func (f *Frame) Open(b []byte) (*Reader, error) {
	fail := func(off int, cause error, format string, args ...any) (*Reader, error) {
		return nil, &Error{Frame: f.Name, Off: off, Cause: cause, Detail: fmt.Sprintf(format, args...)}
	}
	if len(b) >= len(f.Magic) && [8]byte(b[:8]) != f.Magic {
		return fail(0, ErrBadMagic, "got %q", b[:8])
	}
	if len(b) < headerLen+trailerLen {
		return fail(len(b), ErrTruncated, "%d bytes is shorter than header and checksum", len(b))
	}
	end := len(b) - trailerLen
	if got, want := binary.LittleEndian.Uint64(b[end:]), Checksum(b[:end]); got != want {
		return fail(end, ErrChecksum, "got %#x, want %#x", got, want)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != f.Version {
		return fail(8, ErrVersion, "got %d, support %d", v, f.Version)
	}
	return &Reader{frame: f.Name, b: b[:end], off: headerLen}, nil
}

// Reader is a bounds-checked little-endian reader. It is sticky: it
// keeps only the first failure, after which every read returns a zero
// value and later failures are ignored. A decoder can therefore read a
// run of fields and check Err once, and a canonical-form check that
// runs after a failed read cannot replace ErrTruncated.
type Reader struct {
	frame string
	b     []byte
	off   int
	err   *Error
}

// NewReader returns a Reader over b whose failures name frame.
func NewReader(frame string, b []byte) *Reader { return &Reader{frame: frame, b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error {
	if r.err == nil {
		return nil
	}
	return r.err
}

// Fail records a failure at the current offset unless one is already
// recorded.
func (r *Reader) Fail(cause error, format string, args ...any) {
	r.FailAt(r.off, cause, format, args...)
}

// FailAt records a failure at offset off unless one is already
// recorded.
func (r *Reader) FailAt(off int, cause error, format string, args ...any) {
	if r.err == nil {
		r.err = &Error{Frame: r.frame, Off: off, Cause: cause, Detail: fmt.Sprintf(format, args...)}
	}
}

// Off returns the offset of the next unread byte.
func (r *Reader) Off() int { return r.off }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// End fails with ErrTrailing if bytes remain unread, and returns the
// first failure.
func (r *Reader) End() error {
	if r.Remaining() != 0 {
		r.Fail(ErrTrailing, "%d bytes", r.Remaining())
	}
	return r.Err()
}

// Take returns the next n bytes (aliasing the stream), or nil after a
// failure; too few bytes is ErrTruncated.
func (r *Reader) Take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.Fail(ErrTruncated, "%s wants %d bytes, %d remain", what, n, r.Remaining())
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// U8 reads one byte.
func (r *Reader) U8(what string) uint8 {
	if b := r.Take(1, what); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian u32.
func (r *Reader) U32(what string) uint32 {
	if b := r.Take(4, what); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian u64.
func (r *Reader) U64(what string) uint64 {
	if b := r.Take(8, what); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Blob reads a u32 length and that many bytes (AppendBlob's layout).
func (r *Reader) Blob(what string) []byte {
	return r.Take(int(r.U32(what+" length")), what)
}

// Count reads a u32 count of items that each take at least minSize
// bytes. A count the rest of the stream cannot hold is ErrTruncated, so
// a hostile count never drives an allocation. It returns 0 after any
// failure.
func (r *Reader) Count(what string, minSize int) int {
	n := r.U32(what + " count")
	if int64(n)*int64(minSize) > int64(r.Remaining()) {
		r.Fail(ErrTruncated, "%d %ss cannot fit in %d bytes", n, what, r.Remaining())
		return 0
	}
	return int(n)
}

// Counters reads a counters section (AppendCounters' layout), enforcing
// its canonical form: names nonempty and strictly ascending, values
// nonzero. The map is empty, not nil, when the section is.
func (r *Reader) Counters() map[string]uint64 {
	n := r.Count("counter", 1+1+8)
	m := make(map[string]uint64, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		nameLen := r.U8("counter name length")
		if nameLen == 0 {
			r.Fail(ErrCanonical, "empty counter name")
		}
		name := string(r.Take(int(nameLen), "counter name"))
		if i > 0 && name <= prev {
			r.Fail(ErrCanonical, "counter %q not sorted after %q", name, prev)
		}
		prev = name
		v := r.U64("counter value")
		if v == 0 {
			r.Fail(ErrCanonical, "zero-valued counter %q", name)
		}
		m[name] = v
	}
	return m
}

// AppendBlob appends a u32 length and data.
func AppendBlob(b, data []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(data)))
	return append(b, data...)
}

// AppendCounters appends the counters section: a u32 count, then for
// each nonzero counter in ascending name order a u8 name length, the
// name and a u64 value. Zero counters are omitted, so they cost nothing
// and equal states encode to equal bytes.
func AppendCounters(b []byte, counters map[string]uint64) []byte {
	names := make([]string, 0, len(counters))
	for name, v := range counters {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(names)))
	for _, name := range names {
		b = append(b, byte(len(name)))
		b = append(b, name...)
		b = binary.LittleEndian.AppendUint64(b, counters[name])
	}
	return b
}
