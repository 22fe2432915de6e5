package geosir

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Save / Load persist an engine's image base. The format stores the
// options and the raw shapes; indices (normalized copies, range
// structures, hash table) are deterministic functions of those, so Load
// rebuilds them with Freeze and the reloaded engine answers every query
// identically.
//
// Three stream formats are read, two are written. GSIR1 (persist_v1.go)
// is the legacy format, read-only: a bare concatenation of options and
// shapes with no integrity protection. GSIR2 (persist_v2.go) is the
// portable format, and the one that snapshots an engine frozen or not:
// the same payload split into length-prefixed sections (one for the
// options, one per image), each followed by a CRC32 of its payload, so
// truncation and corruption are detected instead of silently loading a
// skewed image base, and LoadPartial can salvage every image whose
// section still verifies. GSIR3 (persist_v3.go) additionally serializes
// the frozen index itself as aligned, checksummed array sections
// declared by one section table, so opening a snapshot is assembly
// instead of a geometry rebuild — and on capable platforms the sections
// are mmap'd and used in place (LoadFileMmap). Save writes GSIR2; Load,
// LoadPartial and Peek read all three.

// Format identifies a snapshot stream format.
type Format int

const (
	// FormatGSIR1 is the legacy unchecksummed format. It is only read:
	// Peek reports it, SaveAs refuses it.
	FormatGSIR1 Format = 1
	// FormatGSIR2 is the portable checksummed, section-framed format.
	FormatGSIR2 Format = 2
	// FormatGSIR3 is the mmap-friendly frozen-shard format: raw shapes
	// plus every derived query-time structure as aligned array sections.
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

// Save writes the engine's configuration and image base to w in the
// current (GSIR2, checksummed) format. The engine may be saved before or
// after Freeze. The encoding is canonical: saving, loading, and saving
// again reproduces the stream byte for byte.
func (e *Engine) Save(w io.Writer) error { return e.SaveAs(w, FormatGSIR2) }

// SaveAs writes the engine in the requested stream format: FormatGSIR2
// (any engine) or FormatGSIR3 (a frozen one).
func (e *Engine) SaveAs(w io.Writer, f Format) error {
	switch f {
	case FormatGSIR2:
		return e.saveGSIR2(w)
	case FormatGSIR3:
		return e.saveGSIR3(w)
	default:
		return fmt.Errorf("geosir: unknown snapshot format %d", f)
	}
}

// Load reads an engine saved with Save or SaveAs (the format is
// negotiated from the magic), rebuilds every index, and returns it frozen
// (ready to query). Any truncation, framing damage, or (for GSIR2
// streams) checksum mismatch fails the load; use LoadPartial to salvage
// what survives from a damaged snapshot.
func Load(r io.Reader) (*Engine, error) {
	cr := &countReader{r: r}
	magic, err := readMagic(cr)
	if err != nil {
		return nil, err
	}
	switch magic {
	case magicGSIR1:
		return loadGSIR1(cr)
	case magicGSIR2:
		return loadGSIR2(cr)
	case magicGSIR3:
		data, err := readAllWithMagic(magic, cr)
		if err != nil {
			return nil, err
		}
		return loadGSIR3Bytes(data, false)
	}
	return nil, fmt.Errorf("geosir: bad magic %q", magic)
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
	// AuxDropped counts declared auxiliary sections (derived data such
	// as the ANN signatures) that failed verification or were never
	// reached. The engine is unaffected — Freeze rebuilds derived
	// structures deterministically — but the snapshot was damaged.
	AuxDropped int
}

// Complete reports whether the snapshot was recovered in full — in that
// case the engine is identical to a plain Load.
func (rec *Recovery) Complete() bool {
	return rec != nil && len(rec.Dropped) == 0 && rec.ImagesUnread == 0 && !rec.Truncated &&
		rec.AuxDropped == 0
}

// LoadPartial reads a possibly damaged snapshot and salvages every image
// whose bytes still verify, returning the frozen engine plus a Recovery
// describing exactly what was dropped. For GSIR2 streams each image
// section is independently CRC-protected, so a single corrupted image
// costs only that image; for GSIR1 streams (no framing) the undamaged
// prefix is salvaged. The options section/header must be intact — without
// it no engine can be constructed and an error is returned.
func LoadPartial(r io.Reader) (*Engine, *Recovery, error) {
	cr := &countReader{r: r}
	magic, err := readMagic(cr)
	if err != nil {
		return nil, nil, err
	}
	switch magic {
	case magicGSIR1:
		return loadPartialGSIR1(cr)
	case magicGSIR2:
		return loadPartialGSIR2(cr)
	case magicGSIR3:
		data, err := readAllWithMagic(magic, cr)
		if err != nil {
			return nil, nil, err
		}
		return loadPartialGSIR3Bytes(data)
	}
	return nil, nil, fmt.Errorf("geosir: bad magic %q", magic)
}

// SaveFile atomically saves the engine to a file: the snapshot is written
// to a temporary file in the target directory, fsynced, renamed over the
// destination, and the directory is fsynced. A crash (or write error) at
// any point leaves the previous snapshot intact; the new snapshot becomes
// visible only as a whole.
func (e *Engine) SaveFile(path string) error {
	return e.saveFileAtomic(path, FormatGSIR2, nil)
}

// SaveFileAs is SaveFile in an explicit stream format.
func (e *Engine) SaveFileAs(path string, f Format) error {
	return e.saveFileAtomic(path, f, nil)
}

// saveFileAtomic writes the snapshot to path with the
// temp-fsync-rename-dirsync discipline every format shares. The wrap
// hook lets tests interpose a fault-injecting writer between SaveAs and
// the temp file to exercise every crash point of the write path.
func (e *Engine) saveFileAtomic(path string, f Format, wrap func(io.Writer) io.Writer) error {
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
	if err := e.SaveAs(w, f); err != nil {
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
// and returns its metadata. For GSIR2 streams the options section's CRC
// is verified, so a Peek that succeeds on a GSIR2 snapshot also proves
// the header is intact; shape sections are not read.
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
