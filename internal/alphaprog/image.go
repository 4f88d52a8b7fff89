package alphaprog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Image format: a trivial container for assembled programs so the command
// line tools can exchange them.
//
//	magic   [8]byte  "ACCDBT1\n"
//	entry   uint64
//	nseg    uint32
//	per segment: addr uint64, len uint32, data [len]byte
var imageMagic = [8]byte{'A', 'C', 'C', 'D', 'B', 'T', '1', '\n'}

// ErrBadImage reports a malformed program image.
var ErrBadImage = errors.New("alphaprog: bad image")

// Save serialises the program.
func (p *Program) Save(w io.Writer) error {
	var buf bytes.Buffer
	buf.Write(imageMagic[:])
	le := binary.LittleEndian
	var tmp [8]byte
	le.PutUint64(tmp[:], p.Entry)
	buf.Write(tmp[:])
	le.PutUint32(tmp[:4], uint32(len(p.Segments)))
	buf.Write(tmp[:4])
	for _, s := range p.Segments {
		le.PutUint64(tmp[:], s.Addr)
		buf.Write(tmp[:])
		le.PutUint32(tmp[:4], uint32(len(s.Data)))
		buf.Write(tmp[:4])
		buf.Write(s.Data)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// Load deserialises a program image.
func Load(r io.Reader) (*Program, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < 20 || !bytes.Equal(data[:8], imageMagic[:]) {
		return nil, fmt.Errorf("%w: missing magic", ErrBadImage)
	}
	le := binary.LittleEndian
	p := &Program{Entry: le.Uint64(data[8:])}
	n := int(le.Uint32(data[16:]))
	off := 20
	for i := 0; i < n; i++ {
		if off+12 > len(data) {
			return nil, fmt.Errorf("%w: truncated segment header", ErrBadImage)
		}
		addr := le.Uint64(data[off:])
		size := int(le.Uint32(data[off+8:]))
		off += 12
		if off+size > len(data) {
			return nil, fmt.Errorf("%w: truncated segment data", ErrBadImage)
		}
		p.Segments = append(p.Segments, Segment{Addr: addr, Data: append([]byte(nil), data[off:off+size]...)})
		off += size
	}
	if !p.Normalize() {
		return nil, fmt.Errorf("%w: overlapping or wrapping segments", ErrBadImage)
	}
	return p, nil
}
