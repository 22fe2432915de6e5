package geosir

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Save / Load persist an engine's image base.
//
// Three stream formats are read, one is written. GSIR3 (persist_v3.go) is
// the format every writer produces: the raw shapes plus the frozen index
// as aligned, checksummed array sections declared by one section table, so
// opening a snapshot is assembly instead of a geometry rebuild — and on
// capable platforms the sections are mmap'd and used in place
// (LoadFileMmap). GSIR1 (persist_v1.go) and GSIR2 (persist_v2.go) are the
// formats of earlier writers, kept readable: GSIR1 a bare concatenation of
// options and shapes, GSIR2 the same payload in length-prefixed sections,
// each followed by a CRC32. They store no index, so their loader rebuilds
// it with Freeze — deterministically, so the engine answers as the one
// saved.
//
// Each format has one decoder, and it salvages: LoadPartial returns what
// it proved intact and a Recovery saying what it dropped. Load is that
// decoder refusing any recovery that is not complete.

// Format identifies a snapshot stream format.
type Format int

const (
	// FormatGSIR1 is the legacy unchecksummed format, read only.
	FormatGSIR1 Format = 1
	// FormatGSIR2 is the checksummed, section-framed format of earlier
	// writers, read only.
	FormatGSIR2 Format = 2
	// FormatGSIR3 is the format Save writes: raw shapes plus every derived
	// query-time structure as aligned array sections.
	FormatGSIR3 Format = 3
)

const (
	magicGSIR1 = "GSIR1\n"
	magicGSIR2 = "GSIR2\n"
	magicLen   = 6
)

// maxCount bounds image/shape/vertex counts against corrupt headers.
const maxCount = 1 << 28

// maxHashCurves bounds the persisted hash-curve count (default is 50;
// building a family is linear in the count, so a corrupt value must not
// be allowed to stall Load for minutes).
const maxHashCurves = 1 << 16

// freezeLoaded freezes a just-decoded engine. An engine with no shapes
// (an empty snapshot, or a salvage that dropped everything) is returned
// unfrozen because the core index rejects empty bases; it is still a
// valid engine that can accept AddImage and be frozen later.
func freezeLoaded(eng *Engine) error {
	if eng.NumShapes() == 0 {
		return nil
	}
	return eng.Freeze()
}

// Load reads an engine saved in any of the three formats (negotiated from
// the magic) and returns it frozen, ready to query — or, for a snapshot of
// no shapes, empty and unfrozen. It is LoadPartial refusing every recovery
// that is not complete: any truncation, framing damage or checksum
// mismatch fails it with the first damage met (Recovery.Err).
func Load(r io.Reader) (*Engine, error) {
	eng, rec, err := LoadPartial(r)
	if err != nil {
		return nil, err
	}
	if rec.Err != nil {
		return nil, rec.Err
	}
	return eng, nil
}

// DroppedImage describes one image section that LoadPartial could not
// recover from a damaged snapshot.
type DroppedImage struct {
	// Section is the 1-based index of the image section in the stream.
	Section int
	// ImageID is the image id parsed from the damaged section on a
	// best-effort basis, or -1 when the bytes are too mangled to trust.
	ImageID int
	// Offset is the byte offset of the section's length prefix in the
	// stream (0 for GSIR1 streams, which have no section framing).
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
	// or bytes past a GSIR2 stream's final section. Load returns it.
	Err error
}

// Complete reports whether the snapshot was recovered in full — exactly
// when Err is nil, and exactly when a plain Load of the same bytes
// succeeds with the same engine.
func (rec *Recovery) Complete() bool { return rec != nil && rec.Err == nil }

// damage records err as the first damage met, unless one is recorded.
func (rec *Recovery) damage(err error) {
	if rec.Err == nil {
		rec.Err = err
	}
}

// LoadPartial reads a possibly damaged snapshot and salvages every image
// whose bytes still verify, returning the engine (frozen unless it holds no
// shapes) plus a Recovery describing exactly what was dropped. For GSIR2
// streams each image section is independently CRC-protected, so a single
// corrupted image costs only that image; for GSIR1 streams (no framing)
// the undamaged prefix is salvaged; a GSIR3 file whose derived sections
// are damaged or torn off is rebuilt from its raw sections. The options
// section/header — and for GSIR3 the raw sections — must be intact:
// without them no engine can be constructed and an error is returned.
func LoadPartial(r io.Reader) (*Engine, *Recovery, error) {
	cr := &countReader{r: r}
	magic, err := readMagic(cr)
	if err != nil {
		return nil, nil, err
	}
	switch magic {
	case magicGSIR1:
		return loadGSIR1(cr)
	case magicGSIR2:
		return loadGSIR2(cr)
	case magicGSIR3:
		data, err := readAllWithMagic(magic, cr)
		if err != nil {
			return nil, nil, err
		}
		return loadGSIR3(data, false)
	}
	return nil, nil, fmt.Errorf("geosir: bad magic %q", magic)
}

// SaveFile atomically saves the engine to a file: the snapshot is written
// to a temporary file in the target directory, fsynced, renamed over the
// destination, and the directory is fsynced. A crash (or write error) at
// any point leaves the previous snapshot intact; the new snapshot becomes
// visible only as a whole.
func (e *Engine) SaveFile(path string) error {
	return e.saveFileAtomic(path, nil)
}

// saveFileAtomic writes the snapshot to path with the
// temp-fsync-rename-dirsync discipline. The wrap hook lets tests
// interpose a fault-injecting writer between Save and the temp file to
// exercise every crash point of the write path.
func (e *Engine) saveFileAtomic(path string, wrap func(io.Writer) io.Writer) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("geosir: creating temp snapshot: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	var w io.Writer = tmp
	if wrap != nil {
		w = wrap(tmp)
	}
	if err := e.Save(w); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("geosir: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("geosir: closing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("geosir: publishing snapshot: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename is durable. Best-effort: some
// filesystems and platforms reject fsync on directories, and by this
// point the rename has already succeeded.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}

// SnapshotInfo is the cheap-to-read header metadata of a snapshot: what
// Peek returns without decoding (or allocating for) any shape data. The
// serving layer uses it to validate a reload target and to report the
// active snapshot in its status endpoints.
type SnapshotInfo struct {
	// Format is the stream format the snapshot was written in.
	Format Format
	// FormatName is the on-disk magic without the newline ("GSIR1",
	// "GSIR2" or "GSIR3").
	FormatName string
	// Options are the engine options the snapshot declares.
	Options Options
	// Images is the declared image count.
	Images int
	// Shapes is the declared shape count (GSIR3 only, else 0 — earlier
	// formats do not record it in the header).
	Shapes int
	// Sections is the section-table entry count (GSIR3 only, else 0).
	Sections int
	// Size is the snapshot size in bytes (PeekFile only, else 0).
	Size int64
}

// Peek reads only the snapshot header — magic plus the options section —
// and returns its metadata. In GSIR2 and GSIR3 snapshots the options
// section's CRC (and GSIR3's section table's) is verified, so a Peek that
// succeeds also proves the header is intact; shape sections are not read.
func Peek(r io.Reader) (SnapshotInfo, error) {
	magic, err := readMagic(r)
	if err != nil {
		return SnapshotInfo{}, err
	}
	switch magic {
	case magicGSIR1:
		opts, nimg, err := newV1Reader(r).readOptions()
		if err != nil {
			return SnapshotInfo{}, err
		}
		return SnapshotInfo{Format: FormatGSIR1, FormatName: "GSIR1", Options: opts, Images: int(nimg)}, nil
	case magicGSIR2:
		opts, nimg, _, err := readOptionsSection(r)
		if err != nil {
			return SnapshotInfo{}, err
		}
		return SnapshotInfo{Format: FormatGSIR2, FormatName: "GSIR2", Options: opts, Images: nimg}, nil
	case magicGSIR3:
		return peekGSIR3(r)
	}
	return SnapshotInfo{}, fmt.Errorf("geosir: bad magic %q", magic)
}

// PeekFile runs Peek on a file and fills in the file size.
func PeekFile(path string) (SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return SnapshotInfo{}, err
	}
	defer f.Close()
	info, err := Peek(f)
	if err != nil {
		return SnapshotInfo{}, err
	}
	if st, err := f.Stat(); err == nil {
		info.Size = st.Size()
	}
	return info, nil
}

// LoadFile loads an engine from a file.
func LoadFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// LoadPartialFile runs LoadPartial on a file.
func LoadPartialFile(path string) (*Engine, *Recovery, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return LoadPartial(f)
}

// countReader tracks the byte offset of an io.Reader so recovery reports
// can point at the damaged section.
type countReader struct {
	r   io.Reader
	off int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.off += int64(n)
	return n, err
}

func readMagic(r io.Reader) (string, error) {
	buf := make([]byte, magicLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("geosir: reading header: %w", err)
	}
	return string(buf), nil
}

// readCapped reads exactly n bytes, growing the buffer in bounded chunks
// so a corrupt length field cannot force a huge up-front allocation: the
// allocation never outruns the bytes the stream actually supplies.
func readCapped(r io.Reader, n int) ([]byte, error) {
	const chunk = 64 << 10
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		m := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, m)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
