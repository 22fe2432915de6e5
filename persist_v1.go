package geosir

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// GSIR1 is the legacy stream format: magic, 4 float64 options, the hash
// curve count, then the images as a bare concatenation with no length
// framing and no checksums. Read-only — LoadPartial and LoadAnyMode keep
// old snapshots usable (testdata/gsir1/base.gsir1 is one, written by the
// last writer this repo had); nothing here produces the format. Bytes
// past the last declared image are not read.

// v1Reader decodes the legacy stream after the magic.
type v1Reader struct {
	br *bufio.Reader
}

func newV1Reader(r io.Reader) *v1Reader { return &v1Reader{br: bufio.NewReader(r)} }

func (d *v1Reader) readF() (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(d.br, buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

func (d *v1Reader) readU() (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(d.br, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// readOptions parses the option block and the image count.
func (d *v1Reader) readOptions() (Options, uint32, error) {
	var opts Options
	var err error
	if opts.Alpha, err = d.readF(); err != nil {
		return opts, 0, fmt.Errorf("geosir: options: %w", err)
	}
	if opts.Beta, err = d.readF(); err != nil {
		return opts, 0, err
	}
	if opts.Tau, err = d.readF(); err != nil {
		return opts, 0, err
	}
	if opts.AngleTol, err = d.readF(); err != nil {
		return opts, 0, err
	}
	hc, err := d.readU()
	if err != nil {
		return opts, 0, err
	}
	if hc > maxHashCurves {
		return opts, 0, fmt.Errorf("geosir: implausible hash-curve count %d", hc)
	}
	opts.HashCurves = int(hc)
	nimg, err := d.readU()
	if err != nil {
		return opts, 0, err
	}
	if nimg > maxCount {
		return opts, 0, fmt.Errorf("geosir: implausible image count %d", nimg)
	}
	return opts, nimg, nil
}

// readImage parses one image record (id, shapes).
func (d *v1Reader) readImage() (int, []Shape, error) {
	imgID, err := d.readU()
	if err != nil {
		return 0, nil, err
	}
	nsh, err := d.readU()
	if err != nil {
		return 0, nil, err
	}
	if nsh > maxCount {
		return 0, nil, fmt.Errorf("geosir: implausible shape count %d", nsh)
	}
	// Capacities are capped so a corrupt count cannot force a huge
	// allocation before the stream runs dry.
	shapes := make([]Shape, 0, min(int(nsh), 1024))
	for s := uint32(0); s < nsh; s++ {
		flag, err := d.readU()
		if err != nil {
			return 0, nil, err
		}
		nv, err := d.readU()
		if err != nil {
			return 0, nil, err
		}
		if nv > maxCount {
			return 0, nil, fmt.Errorf("geosir: implausible vertex count %d", nv)
		}
		pts := make([]Point, 0, min(int(nv), 4096))
		for v := uint32(0); v < nv; v++ {
			x, err := d.readF()
			if err != nil {
				return 0, nil, err
			}
			y, err := d.readF()
			if err != nil {
				return 0, nil, err
			}
			pts = append(pts, Pt(x, y))
		}
		shapes = append(shapes, Shape{Pts: pts, Closed: flag == 1})
	}
	return int(imgID), shapes, nil
}

// loadGSIR1 is the GSIR1 decoder (magic already consumed): it salvages
// the undamaged prefix of a legacy stream. GSIR1 has no section framing
// or checksums, so the first parse error ends recovery: every fully
// parsed image before it is kept, everything after is reported dropped.
func loadGSIR1(cr *countReader) (*Engine, *Recovery, error) {
	d := newV1Reader(cr)
	opts, nimg, err := d.readOptions()
	if err != nil {
		return nil, nil, fmt.Errorf("geosir: unrecoverable options header: %w", err)
	}
	eng := New(opts)
	rec := &Recovery{Format: "GSIR1", ImagesExpected: int(nimg)}
	for i := uint32(0); i < nimg; i++ {
		imgID, shapes, err := d.readImage()
		if err != nil {
			// A parse error loses framing: the stream position is
			// untrustworthy from here on. The failing section is reported;
			// the unreadable tail is counted, not enumerated.
			rec.Truncated = true
			rec.Dropped = append(rec.Dropped, DroppedImage{
				Section: int(i) + 1,
				ImageID: -1,
				Err:     err,
			})
			rec.ImagesUnread = int(nimg) - int(i) - 1
			rec.damage(fmt.Errorf("geosir: image %d of %d: %w", i+1, nimg, err))
			break
		}
		// A decoded but invalid image (corrupt coordinate bytes still
		// parse as floats) keeps framing intact: drop it and continue.
		if err := eng.AddImage(imgID, shapes); err != nil {
			rec.Dropped = append(rec.Dropped, DroppedImage{
				Section: int(i) + 1,
				ImageID: imgID,
				Err:     err,
			})
			rec.damage(fmt.Errorf("geosir: image %d: %w", imgID, err))
			continue
		}
		rec.ImagesLoaded++
	}
	if err := freezeLoaded(eng); err != nil {
		return nil, nil, err
	}
	return eng, rec, nil
}
