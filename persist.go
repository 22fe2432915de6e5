package geosir

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/atomicfile"
)

// Save and the two loaders persist an engine's image base: LoadPartial
// decodes a stream, and LoadAnyMode (shard_persist.go) opens a snapshot
// file or directory, on the heap or mapped.
//
// Three stream formats are read, one is written. GSIR3 (persist_v3.go) is
// the format every writer produces: the raw shapes plus the frozen index
// as aligned, checksummed array sections declared by one section table, so
// opening a snapshot is assembly instead of a geometry rebuild — and on
// capable platforms the sections are mmap'd and used in place
// (LoadModeMmap). GSIR1 (persist_v1.go) and GSIR2 (persist_v2.go) are the
// formats of earlier writers, kept readable: GSIR2 an options record and
// one record per image, each in a length-prefixed section followed by a
// CRC32, and GSIR1 GSIR2's records unframed — the same records, parsed by
// the same parsers, as a bare concatenation. They store no index, so their
// loader rebuilds it with Freeze — deterministically, so the engine
// answers as the one saved.
//
// Each format has one decoder, and it salvages: it returns what it proved
// intact and a Recovery saying what it dropped, which is Complete exactly
// when it met no damage. A stream is read once, whole, and its decoder
// parses the bytes in place through the one bounds-checked cursor.

const (
	magicGSIR1 = "GSIR1\n"
	magicGSIR2 = "GSIR2\n"
	magicLen   = 6
)

// maxCount bounds image/shape/vertex counts against corrupt headers.
const maxCount = 1 << 28

// maxHashCurves bounds the persisted hash-curve count (default is 50;
// building a family is linear in the count, so a corrupt value must not
// be allowed to stall a load for minutes).
const maxHashCurves = 1 << 16

// DroppedImage describes one image section that LoadPartial could not
// recover from a damaged snapshot.
type DroppedImage struct {
	// Section is the 1-based index of the image section in the stream.
	Section int
	// ImageID is the image id parsed from the damaged section on a
	// best-effort basis, or -1 when the bytes are too mangled to trust.
	ImageID int
	// Offset is the byte offset of the section's length prefix in the
	// stream, magic included (0 for GSIR1 streams, which have no section
	// framing).
	Offset int64
	// Err records why the section was dropped.
	Err error
}

// Recovery reports what LoadPartial salvaged and what it had to drop.
type Recovery struct {
	// Format names the stream format that was read ("GSIR1", "GSIR2" or
	// "GSIR3").
	Format string
	// ImagesExpected is the image count the snapshot header declared.
	ImagesExpected int
	// ImagesLoaded is the number of images recovered into the engine.
	ImagesLoaded int
	// Dropped lists every image section that was reached but failed
	// verification or parsing, in stream order. Sections past a framing
	// loss are never reached and are counted in ImagesUnread instead
	// (a corrupt header can claim 2^28 images; enumerating an unreadable
	// tail individually would let a one-byte flip cost gigabytes).
	Dropped []DroppedImage
	// ImagesUnread counts the declared image sections that were never
	// reached because framing was lost earlier in the stream.
	ImagesUnread int
	// Truncated reports that section framing was lost (truncation or a
	// mangled length prefix) before the declared image count was reached.
	Truncated bool
	// AuxDropped counts declared auxiliary sections (derived data: a
	// GSIR2 file's auxiliary sections, a GSIR3 file's frozen index) that failed
	// verification or were never reached. The engine is unaffected —
	// derived structures are rebuilt deterministically — but the snapshot
	// was damaged.
	AuxDropped int
	// Err is the first damage the decoder met, nil when it met none: a
	// dropped or unread image, lost framing, a dropped auxiliary section,
	// or bytes past a GSIR2 stream's final section — joined with the read
	// error that ended the stream, if one did.
	Err error
}

// Complete reports whether the snapshot was recovered in full: exactly
// when Err is nil, and then the engine is the one saved.
func (rec *Recovery) Complete() bool { return rec != nil && rec.Err == nil }

// damage records err as the first damage met, unless one is recorded.
func (rec *Recovery) damage(err error) {
	if rec.Err == nil {
		rec.Err = err
	}
}

// LoadPartial reads a possibly damaged snapshot and salvages every image
// whose bytes still verify, returning the engine (frozen, even of no
// shapes) plus a Recovery describing exactly what was dropped. For GSIR2
// streams each image section is independently CRC-protected, so a single
// corrupted image costs only that image; for GSIR1 streams (no framing)
// the undamaged prefix is salvaged; a GSIR3 file whose derived sections
// are damaged or torn off is rebuilt from its raw sections. The options
// section/header — and for GSIR3 the raw sections — must be intact:
// without them no engine can be constructed and an error is returned.
//
// A read error ends the stream where it struck: the bytes before it are
// decoded as a stream cut there, and the error is joined to Recovery.Err
// (or to the returned error), so such a load is never Complete.
func LoadPartial(r io.Reader) (*Engine, *Recovery, error) {
	data, rerr := io.ReadAll(r)
	var eng *Engine
	var rec *Recovery
	var err error
	switch magic := string(data[:min(len(data), magicLen)]); magic {
	case magicGSIR1:
		eng, rec, err = loadGSIR1(data)
	case magicGSIR2:
		eng, rec, err = loadGSIR2(data)
	case magicGSIR3:
		eng, rec, err = loadGSIR3(data, false)
	default:
		if len(magic) < magicLen {
			err = fmt.Errorf("geosir: reading header: %w", io.ErrUnexpectedEOF)
		} else {
			err = fmt.Errorf("geosir: bad magic %q", magic)
		}
	}
	if rerr != nil {
		rerr = fmt.Errorf("geosir: read error after byte %d: %w", len(data), rerr)
		if err != nil {
			return nil, nil, errors.Join(err, rerr)
		}
		rec.Err = errors.Join(rec.Err, rerr)
	}
	return eng, rec, err
}

// SaveFile atomically saves the engine to a file (atomicfile.Write): a
// crash (or write error) at any point leaves the previous snapshot intact;
// the new snapshot becomes visible only as a whole.
func (e *Engine) SaveFile(path string) error {
	return atomicfile.Write(path, nil, e.Save)
}
