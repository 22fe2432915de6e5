package geosir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// GSIR2 is the stream format of earlier writers, read only:
//
//	magic "GSIR2\n"
//	section := u32 payloadLen | payload | u32 crc32(payload)   (little-endian, IEEE CRC)
//	section 0 (options, 44 bytes): f64 alpha, beta, tau, angleTol | u32 hashCurves | u32 nImages | u32 nAux
//	sections 1..nImages (one per image):
//	    u32 imageID | u32 nShapes | nShapes × { u32 flags (bit0 = closed) | u32 nVerts | nVerts × (f64 x, f64 y) }
//	sections nImages+1..nImages+nAux (auxiliary, tagged):
//	    4-byte tag | tag-specific payload
//
// Version negotiation: a 40-byte options payload (written before
// auxiliary sections existed) implies nAux = 0. Every auxiliary section is
// framed and checksummed like any section and its payload is skipped —
// "ANN1", the ANN signatures the writer used to store, included: the index
// is derived from the shapes at its first probe.
//
// Every section is independently framed and checksummed: truncation, a
// torn tail, or a flipped byte anywhere in a section surfaces as a CRC or
// framing error rather than a silently different image base, and the
// decoder drops exactly the damaged sections while keeping the rest.
// Declaring nAux up front keeps truncation detection airtight: a tear at
// the auxiliary-section boundary cannot masquerade as a shorter valid
// stream; bytes past the final section are damage too.

// maxSectionLen bounds a section length prefix against corrupt framing.
const maxSectionLen = 1 << 30

// errBadCRC marks a section whose payload read fully but failed its
// checksum — framing is intact, the content is not.
var errBadCRC = errors.New("geosir: section checksum mismatch")

// optionsSectionLenV1 is the legacy options payload (no auxiliary
// count); optionsSectionLen is the current one with the trailing nAux.
const (
	optionsSectionLenV1 = 4*8 + 4 + 4
	optionsSectionLen   = optionsSectionLenV1 + 4
)

// maxAuxSections bounds the declared auxiliary count against corrupt
// framing.
const maxAuxSections = 64

func appendU32(b []byte, v uint32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return append(b, buf[:]...)
}

func appendU64(b []byte, v uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return append(b, buf[:]...)
}

func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

// readSection reads one framed section. It returns errBadCRC (with the
// suspect payload, for best-effort reporting) when the bytes read fully
// but the checksum disagrees; any other error means framing itself is
// broken (truncation, implausible length) and the stream position past
// this point cannot be trusted.
func readSection(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxSectionLen {
		return nil, fmt.Errorf("geosir: implausible section length %d", n)
	}
	buf, err := readCapped(r, int(n)+4)
	if err != nil {
		return nil, err
	}
	payload, sum := buf[:n], binary.LittleEndian.Uint32(buf[n:])
	if crc32.ChecksumIEEE(payload) != sum {
		return payload, errBadCRC
	}
	return payload, nil
}

// cursor is a bounds-checked little-endian reader over a section payload.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.b) < n {
		c.err = io.ErrUnexpectedEOF
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

func (c *cursor) u32() uint32 {
	v := c.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (c *cursor) u64() uint64 {
	v := c.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (c *cursor) f64() float64 {
	return math.Float64frombits(c.u64())
}

func (c *cursor) remaining() int { return len(c.b) }

// readOptionsSection parses section 0: the engine options, the declared
// image count, and the declared auxiliary-section count. A legacy
// 40-byte payload (written before auxiliary sections existed) implies
// zero auxiliary sections.
func readOptionsSection(r io.Reader) (Options, int, int, error) {
	payload, err := readSection(r)
	if err != nil {
		return Options{}, 0, 0, fmt.Errorf("geosir: options section: %w", err)
	}
	if len(payload) != optionsSectionLen && len(payload) != optionsSectionLenV1 {
		return Options{}, 0, 0, fmt.Errorf("geosir: options section is %d bytes, want %d or %d",
			len(payload), optionsSectionLen, optionsSectionLenV1)
	}
	c := cursor{b: payload}
	var opts Options
	opts.Alpha = c.f64()
	opts.Beta = c.f64()
	opts.Tau = c.f64()
	opts.AngleTol = c.f64()
	hc := c.u32()
	nimg := c.u32()
	naux := uint32(0)
	if len(payload) == optionsSectionLen {
		naux = c.u32()
	}
	if c.err != nil {
		return Options{}, 0, 0, c.err
	}
	if hc > maxHashCurves {
		return Options{}, 0, 0, fmt.Errorf("geosir: implausible hash-curve count %d", hc)
	}
	opts.HashCurves = int(hc)
	if nimg > maxCount {
		return Options{}, 0, 0, fmt.Errorf("geosir: implausible image count %d", nimg)
	}
	if naux > maxAuxSections {
		return Options{}, 0, 0, fmt.Errorf("geosir: implausible auxiliary-section count %d", naux)
	}
	return opts, int(nimg), int(naux), nil
}

// parseImagePayload decodes one image section payload. Counts are
// validated against the bytes actually present before any allocation, so
// a corrupt (but checksum-colliding) payload cannot force a huge
// allocation.
func parseImagePayload(b []byte) (int, []Shape, error) {
	c := cursor{b: b}
	imgID := c.u32()
	nsh := c.u32()
	if c.err != nil {
		return 0, nil, c.err
	}
	if int64(nsh)*8 > int64(c.remaining()) {
		return 0, nil, fmt.Errorf("geosir: implausible shape count %d", nsh)
	}
	shapes := make([]Shape, 0, nsh)
	for s := uint32(0); s < nsh; s++ {
		flags := c.u32()
		nv := c.u32()
		if c.err != nil {
			return 0, nil, c.err
		}
		if int64(nv)*16 > int64(c.remaining()) {
			return 0, nil, fmt.Errorf("geosir: implausible vertex count %d", nv)
		}
		pts := make([]Point, nv)
		for v := range pts {
			pts[v] = Pt(c.f64(), c.f64())
		}
		if c.err != nil {
			return 0, nil, c.err
		}
		shapes = append(shapes, Shape{Pts: pts, Closed: flags&1 == 1})
	}
	if c.remaining() != 0 {
		return 0, nil, fmt.Errorf("geosir: %d trailing bytes in image section", c.remaining())
	}
	return int(imgID), shapes, nil
}

// bestEffortImageID pulls the image id from a damaged payload when
// enough bytes exist, purely for the recovery report; -1 otherwise.
func bestEffortImageID(payload []byte) int {
	if len(payload) >= 4 {
		return int(binary.LittleEndian.Uint32(payload))
	}
	return -1
}

// loadGSIR2 is the GSIR2 decoder (magic already consumed): it salvages
// every image section that still verifies. A checksum mismatch costs only
// that section (framing stays intact); a framing error (truncation,
// mangled length prefix) ends recovery, and every unread section is
// reported dropped.
func loadGSIR2(cr *countReader) (*Engine, *Recovery, error) {
	opts, nimg, naux, err := readOptionsSection(cr)
	if err != nil {
		return nil, nil, fmt.Errorf("geosir: unrecoverable options section: %w", err)
	}
	eng := New(opts)
	rec := &Recovery{Format: "GSIR2", ImagesExpected: nimg}
	for i := 0; i < nimg; i++ {
		off := cr.off
		payload, err := readSection(cr)
		framed := err == nil || errors.Is(err, errBadCRC)
		if err == nil { // a checksum mismatch costs just this section
			var id int
			var shapes []Shape
			if id, shapes, err = parseImagePayload(payload); err == nil {
				err = eng.AddImage(id, shapes)
			}
		}
		if err == nil {
			rec.ImagesLoaded++
			continue
		}
		rec.Dropped = append(rec.Dropped, DroppedImage{
			Section: i + 1,
			ImageID: bestEffortImageID(payload),
			Offset:  off,
			Err:     err,
		})
		rec.damage(fmt.Errorf("geosir: image section %d: %w", i+1, err))
		if !framed {
			// Framing lost: the section where it broke is reported, the
			// unreadable tail counted rather than enumerated.
			rec.Truncated, rec.ImagesUnread = true, nimg-i-1
			break
		}
	}
	// Auxiliary sections are derived data, which the engine derives again:
	// each is framed and checked and its payload skipped, and any damage is
	// counted. Past them the stream must end.
	framed := !rec.Truncated
	for a := 0; a < naux; a++ {
		if !framed {
			rec.AuxDropped += naux - a
			break
		}
		payload, err := readSection(cr)
		framed = err == nil || errors.Is(err, errBadCRC)
		if err == nil && len(payload) < 4 {
			err = fmt.Errorf("geosir: auxiliary section too short (%d bytes)", len(payload))
		}
		if err != nil {
			rec.AuxDropped++
			rec.damage(fmt.Errorf("geosir: auxiliary section %d: %w", a+1, err))
		}
	}
	if framed {
		var tail [1]byte
		if _, err := io.ReadFull(cr, tail[:]); err != io.EOF {
			rec.damage(errors.New("geosir: trailing bytes after final section"))
		}
	}
	if err := freezeLoaded(eng); err != nil {
		return nil, nil, err
	}
	return eng, rec, nil
}
