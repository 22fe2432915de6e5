package geosir

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/geohash"
	"repro/internal/geom"
	"repro/internal/mmap"
	"repro/internal/query"
)

// GSIR3 is the mmap-friendly frozen-shard format: the on-disk form of
// every hot query-time structure *is* its runtime form, so opening a
// snapshot is a map + verify + O(n) pointer stitching instead of a
// geometry rebuild, and the OS page cache becomes the storage
// hierarchy for bigger-than-RAM bases.
//
//	magic "GSIR3\n" | u16 version=1 | u32 nSections | u32 flags    (16 B)
//	nSections × { tag [4]byte | u32 rsvd | u64 off | u64 len | u32 crc32(payload) | u32 rsvd }
//	u32 crc32(section table)
//	payloads, each at an 8-byte-aligned offset, zero padding between;
//	the file ends exactly at the end of the last payload.
//
// Everything is little-endian. Section payloads are contiguous arrays
// of fixed-size elements (float64 / int32 / padding-free structs of
// them), so on a little-endian host an mmap'd payload can be
// reinterpreted in place as the Go slice the engine serves from
// (internal/mmap.Cast); everywhere else the same payload is decoded
// into fresh heap slices with identical results (view).
//
// v3Table declares every section once — tag, family, element size,
// expected count — and is the only place a section's shape is stated:
// the writer emits its rows in order, the loader checks every row's
// presence and length against it before assembly. Two families exist.
// The raw family (OPTS, IMGS, SHPM, RAWV) is the canonical image base —
// exactly the information GSIR2 stores — so a GSIR3 snapshot with
// damaged derived sections can still be rebuilt the slow way. The
// derived family is the frozen index: entry metadata and transforms
// (ENTM, ENTT), the flattened vertex arrays (EOFF, EVTX),
// geometric-hash quadruples (QUAD), diameter angles (DANG), image graphs
// (GRPH), and the ANN signature family (ANNP, ANNS). Sections are found
// by tag: one the table does not name is checksummed like the rest and
// otherwise ignored. Earlier writers emitted four kinds of these: GBND;
// the kd-tree (KDTP, KDTI, KDTB) and vertex → entry map (VENT) that only
// the paper's climb reads, which is built on its first use instead
// (core.Base.BuildRangeIndex); and a segment grid per entry (GRDH, GSEG,
// GCEL, GIDS), where a search now reads the copy's own edges.
//
// Integrity: the loader verifies the table checksum and then every
// section's CRC32 before assembly — corrupt bytes are refused (or, via
// LoadPartial, salvaged by rebuilding from the intact raw family),
// never served. Assembly after verification trusts element values and
// only re-checks the shape invariants slice indexing depends on.

const (
	magicGSIR3 = "GSIR3\n"

	v3Version    = 1
	v3HeaderLen  = 16
	v3TableEntry = 32
	v3Align      = 8

	// v3MaxSections bounds the declared section count against corrupt
	// headers (the writer emits one section per v3Table row).
	v3MaxSections = 64

	// v3OptsLen is the OPTS payload: 4 float64 options + 8 uint32 words
	// (hash curves, five counts, the backend word, one reserved).
	v3OptsLen = 4*8 + 8*4

	// v3KDTree is OPTS's backend word, the constant 2 (the kd-tree): the
	// only value written and the only one accepted. It once named the
	// range-search structure the KDT* sections held; readers from before
	// those sections left the format still check it.
	v3KDTree = 2

	// graph edge labels persisted in GRPH.
	v3RelContain = 1
	v3RelOverlap = 2
)

// v3Row declares one section.
type v3Row struct {
	tag string
	// raw marks the raw family: the sections sufficient (and required)
	// to rebuild the engine from scratch when derived ones are damaged.
	raw bool
	// elem is the size in bytes of one counted element; 0 marks a framed
	// stream (IMGS, GRPH), whose parser bounds every count it reads by
	// the bytes left.
	elem int
	// count is how many elements the OPTS counts promise. nil marks a
	// pooled array — its extent is stated by a sibling header (ANNP for
	// ANNS), which the assembly checks — and only whole elements are
	// required of it.
	count func(o *v3Options) int
}

const v3Raw, v3Derived = true, false

func v3One(*v3Options) int         { return 1 }
func v3Shapes(o *v3Options) int    { return o.nShapes }
func v3Entries(o *v3Options) int   { return o.nEntries }
func v3Verts(o *v3Options) int     { return o.nVerts }
func v3RawVerts(o *v3Options) int  { return o.nRawVerts }
func v3EntryEnds(o *v3Options) int { return o.nEntries + 1 }

// v3Table is the GSIR3 section set, in file order.
var v3Table = []v3Row{
	{"OPTS", v3Raw, v3OptsLen, v3One},
	{"IMGS", v3Raw, 0, nil},             // u32 n | n × { u32 image id | u32 shapes }
	{"SHPM", v3Raw, 16, v3Shapes},       // i32 flags (bit0 = closed) | RAWV offset | vertices | rsvd
	{"RAWV", v3Raw, 16, v3RawVerts},     // geom.Point
	{"ENTM", v3Derived, 16, v3Entries},  // core.EntryMeta
	{"ENTT", v3Derived, 64, v3Entries},  // geom.Transform × 2: Norm then Inv
	{"EOFF", v3Derived, 4, v3EntryEnds}, // i32: entry → first vertex
	{"EVTX", v3Derived, 16, v3Verts},    // geom.Point
	{"QUAD", v3Derived, 16, v3Shapes},   // 4 × i32 hash cell, all -1: shape not in the table
	{"DANG", v3Derived, 8, v3Shapes},    // f64 diameter angle
	{"GRPH", v3Derived, 0, nil},         // u32 n | n × { image id | shapes | edges }
	{"ANNP", v3Derived, 24, v3One},      // u64 seed | u32 grid res | bands | rows | entries
	{"ANNS", v3Derived, 8, nil},         // u64 signatures, entries × bands·rows
}

// v3RawTags is the raw family, read off the table.
var v3RawTags = func() map[string]bool {
	raw := make(map[string]bool)
	for _, row := range v3Table {
		raw[row.tag] = row.raw
	}
	return raw
}()

// v3Check is the loader's one shape check, run before any assembly:
// every row of the table (rawOnly: of the raw family, for the salvage
// rebuild) is present and holds exactly the bytes the OPTS counts
// promise.
func v3Check(sec map[string][]byte, o *v3Options, rawOnly bool) error {
	for _, row := range v3Table {
		if rawOnly && !row.raw {
			continue
		}
		b, ok := sec[row.tag]
		switch {
		case !ok:
			return fmt.Errorf("geosir: GSIR3 snapshot missing section %s", row.tag)
		case row.elem == 0:
		case row.count == nil:
			if len(b)%row.elem != 0 {
				return fmt.Errorf("geosir: section %s is %d bytes, not whole %d-byte elements", row.tag, len(b), row.elem)
			}
		default:
			if want := int64(row.count(o)) * int64(row.elem); int64(len(b)) != want {
				return fmt.Errorf("geosir: section %s is %d bytes, OPTS counts promise %d", row.tag, len(b), want)
			}
		}
	}
	return nil
}

// view returns section payload b as a []T, T being the fixed-size,
// padding-free element type the section's row declares. With alias set
// (an mmap'd snapshot) the payload is served in place; otherwise the
// result is a fresh heap slice that outlives b — one bulk copy where
// mmap.Cast can reinterpret the bytes, an element-wise little-endian
// decode where it declines (big-endian hosts, the geosir_purego build).
func view[T any](b []byte, alias bool) []T {
	if v, ok := mmap.Cast[T](b); ok {
		if alias {
			return v
		}
		return slices.Clone(v)
	}
	var zero T
	out := make([]T, len(b)/binary.Size(zero))
	if err := binary.Read(bytes.NewReader(b), binary.LittleEndian, out); err != nil {
		panic(err) // only a T that is not fixed-size: a bug, not an input
	}
	return out
}

// put appends vs to b in section layout, the inverse of view: one bulk
// copy where mmap.Cast can reinterpret the destination, an element-wise
// little-endian encode where it declines.
func put[T any](b []byte, vs []T) []byte {
	n := binary.Size(vs)
	b = slices.Grow(b, n)
	if dst, ok := mmap.Cast[T](b[len(b) : len(b)+n]); ok {
		copy(dst, vs)
		return b[:len(b)+n]
	}
	buf := bytes.NewBuffer(b)
	if err := binary.Write(buf, binary.LittleEndian, vs); err != nil {
		panic(err) // as in view
	}
	return buf.Bytes()
}

// v3sec is one section payload on its way to (or back from) a file.
type v3sec struct {
	tag     string
	payload []byte
}

// saveGSIR3 writes the mmap-friendly format: the table's rows, in the
// table's order. Unlike GSIR2 it requires a frozen engine: the derived
// sections *are* the frozen index. (Every production write site —
// SaveDir, compaction commits — saves frozen engines; use
// SaveAs(w, FormatGSIR2) to snapshot an unfrozen one.)
func (e *Engine) saveGSIR3(w io.Writer) error {
	built, err := e.buildV3Sections()
	if err != nil {
		return err
	}
	secs := make([]v3sec, len(v3Table))
	for i, row := range v3Table {
		payload, ok := built[row.tag]
		if !ok {
			return fmt.Errorf("geosir: internal error: section %s not built", row.tag)
		}
		secs[i] = v3sec{tag: row.tag, payload: payload}
	}
	return writeV3(w, secs)
}

func alignV3(off uint64) uint64 { return (off + v3Align - 1) &^ (v3Align - 1) }

// writeV3 lays the sections out behind the header, the table and its
// CRC — each payload at an 8-aligned offset, the file ending with the
// last payload — and writes the image.
func writeV3(w io.Writer, secs []v3sec) error {
	head := binary.LittleEndian.AppendUint16([]byte(magicGSIR3), v3Version)
	head = appendU32(head, uint32(len(secs)))
	head = appendU32(head, 0)
	off := alignV3(uint64(v3HeaderLen + len(secs)*v3TableEntry + 4))
	for _, s := range secs {
		head = append(head, s.tag...)
		head = appendU32(head, 0)
		head = appendU64(head, off)
		head = appendU64(head, uint64(len(s.payload)))
		head = appendU32(head, crc32.ChecksumIEEE(s.payload))
		head = appendU32(head, 0)
		off = alignV3(off + uint64(len(s.payload)))
	}
	head = appendU32(head, crc32.ChecksumIEEE(head[v3HeaderLen:]))

	// A bufio.Writer keeps its first error and returns it from every later
	// call, Flush included, so only Flush is checked.
	bw := bufio.NewWriter(w)
	bw.Write(head)
	pos := uint64(len(head))
	var pad [v3Align]byte
	for _, s := range secs {
		bw.Write(pad[:alignV3(pos)-pos])
		bw.Write(s.payload)
		pos = alignV3(pos) + uint64(len(s.payload))
	}
	return bw.Flush()
}

// buildV3Sections flattens the frozen engine into its section payloads,
// by tag. Array sections are put from the very element types the loader
// views them as, so the two layouts cannot drift apart.
func (e *Engine) buildV3Sections() (map[string][]byte, error) {
	if !e.frozen {
		return nil, fmt.Errorf("geosir: GSIR3 requires a frozen engine (use FormatGSIR2 for unfrozen snapshots)")
	}
	base := e.db.Base()
	parts, err := base.FrozenParts()
	if err != nil {
		return nil, err
	}
	images := e.imagesInOrder()
	shapes := base.Shapes()
	ne := len(parts.Entries)
	out := make(map[string][]byte, len(v3Table))

	// IMGS / SHPM / RAWV — the raw image base, shapes in id order
	// (imagesInOrder groups by image preserving that order).
	imgs := appendU32(nil, uint32(len(images)))
	var shpm []int32
	var rawv []byte
	for _, img := range images {
		imgs = appendU32(imgs, uint32(img.id))
		imgs = appendU32(imgs, uint32(len(img.shapes)))
		for _, p := range img.shapes {
			flags := int32(0)
			if p.Closed {
				flags = 1
			}
			shpm = append(shpm, flags, int32(len(rawv)/16), int32(len(p.Pts)), 0)
			rawv = put(rawv, p.Pts)
		}
	}
	out["IMGS"], out["SHPM"], out["RAWV"] = imgs, put(nil, shpm), rawv

	metas := make([]core.EntryMeta, ne)
	trans := make([]geom.Transform, 0, 2*ne)
	for i := range parts.Entries {
		en := &parts.Entries[i]
		metas[i] = core.EntryMeta{ShapeID: int32(en.ShapeID), Copy: int32(en.Copy),
			DiamI: int32(en.DiamI), DiamJ: int32(en.DiamJ)}
		trans = append(trans, en.Norm, en.Inv)
	}
	out["ENTM"], out["ENTT"] = put(nil, metas), put(nil, trans)
	out["EOFF"], out["EVTX"] = put(nil, parts.EntryOff), put(nil, parts.Verts)

	// QUAD / DANG — geometric-hash quadruples and diameter angles, per
	// shape. A shape the hash table skipped (degenerate canonical
	// normalization) is stored as an all -1 quadruple.
	quad := make([]int32, 0, 4*len(shapes))
	dang := make([]float64, len(shapes))
	for i, s := range shapes {
		if q, ok := e.table.Quad(s.ID); ok {
			for _, c := range q {
				quad = append(quad, int32(c))
			}
		} else {
			quad = append(quad, -1, -1, -1, -1)
		}
		dang[i], _ = e.db.DiamAng(s.ID)
	}
	out["QUAD"], out["DANG"] = put(nil, quad), put(nil, dang)

	// GRPH — per-image topology graphs (vertices + labeled edges).
	grph := appendU32(nil, uint32(len(images)))
	for _, img := range images {
		g, ok := e.db.Graph(img.id)
		if !ok {
			return nil, fmt.Errorf("geosir: image %d has no graph", img.id)
		}
		grph = appendU32(grph, uint32(img.id))
		grph = appendU32(grph, uint32(len(g.Shapes)))
		for _, sid := range g.Shapes {
			grph = appendU32(grph, uint32(sid))
		}
		grph = appendU32(grph, uint32(len(g.Edges)))
		for _, ed := range g.Edges {
			lbl := uint32(v3RelContain)
			if ed.Label == query.RelOverlap {
				lbl = v3RelOverlap
			} else if ed.Label != query.RelContain {
				return nil, fmt.Errorf("geosir: image %d has unknown edge label %q", img.id, ed.Label)
			}
			grph = appendU32(grph, uint32(ed.From))
			grph = appendU32(grph, uint32(ed.To))
			grph = appendU32(grph, lbl)
		}
	}
	out["GRPH"] = grph

	// ANNP / ANNS — the MinHash/LSH signature family.
	p, sigs, n := e.annSignatures()
	annp := appendU64(nil, p.Seed)
	annp = appendU32(annp, uint32(p.GridRes))
	annp = appendU32(annp, uint32(p.Bands))
	annp = appendU32(annp, uint32(p.Rows))
	out["ANNP"], out["ANNS"] = appendU32(annp, uint32(n)), put(nil, sigs)

	opt := make([]byte, 0, v3OptsLen)
	opt = appendF64(opt, e.opts.Alpha)
	opt = appendF64(opt, e.opts.Beta)
	opt = appendF64(opt, e.opts.Tau)
	opt = appendF64(opt, e.opts.AngleTol)
	opt = appendU32(opt, uint32(e.opts.HashCurves))
	opt = appendU32(opt, uint32(len(images)))
	opt = appendU32(opt, uint32(len(shapes)))
	opt = appendU32(opt, uint32(ne))
	opt = appendU32(opt, uint32(len(parts.Verts)))
	opt = appendU32(opt, uint32(len(rawv)/16))
	opt = appendU32(opt, v3KDTree)
	out["OPTS"] = appendU32(opt, 0)
	return out, nil
}

// v3Section is one parsed section-table row.
type v3Section struct {
	tag string
	off uint64
	len uint64
	crc uint32
}

// parseV3Header parses the 10 header bytes that follow the magic and
// returns the declared section count.
func parseV3Header(hdr []byte) (int, error) {
	if v := binary.LittleEndian.Uint16(hdr); v != v3Version {
		return 0, fmt.Errorf("geosir: unsupported GSIR3 version %d", v)
	}
	nsec := binary.LittleEndian.Uint32(hdr[2:])
	if nsec == 0 || nsec > v3MaxSections {
		return 0, fmt.Errorf("geosir: implausible GSIR3 section count %d", nsec)
	}
	return int(nsec), nil
}

// parseV3Rows parses a section table (its trailing CRC included) for a
// file of fileLen bytes — the one table parse, shared by the loaders and
// Peek. Rows are checked for alignment, order and bounds; payload CRCs
// are NOT verified here.
func parseV3Rows(table []byte, fileLen uint64) ([]v3Section, error) {
	tableLen := len(table) - 4
	if crc32.ChecksumIEEE(table[:tableLen]) != binary.LittleEndian.Uint32(table[tableLen:]) {
		return nil, fmt.Errorf("geosir: GSIR3 section table checksum mismatch")
	}
	secs := make([]v3Section, tableLen/v3TableEntry)
	prevEnd := uint64(v3HeaderLen + len(table))
	for i := range secs {
		row := table[i*v3TableEntry:]
		s := v3Section{
			tag: string(row[0:4]),
			off: binary.LittleEndian.Uint64(row[8:]),
			len: binary.LittleEndian.Uint64(row[16:]),
			crc: binary.LittleEndian.Uint32(row[24:]),
		}
		if s.off%v3Align != 0 {
			return nil, fmt.Errorf("geosir: section %s at misaligned offset %d", s.tag, s.off)
		}
		if s.off < prevEnd || s.off > fileLen || s.len > fileLen-s.off {
			return nil, fmt.Errorf("geosir: section %s [%d,+%d) outside file of %d bytes",
				s.tag, s.off, s.len, fileLen)
		}
		prevEnd = s.off + s.len
		secs[i] = s
	}
	return secs, nil
}

// parseV3Layout validates the header + section table of a complete
// GSIR3 byte image (magic included) and returns the table rows, which
// must cover the file exactly.
func parseV3Layout(data []byte) ([]v3Section, error) {
	if len(data) < v3HeaderLen {
		return nil, fmt.Errorf("geosir: GSIR3 snapshot truncated at %d bytes", len(data))
	}
	if string(data[:magicLen]) != magicGSIR3 {
		return nil, fmt.Errorf("geosir: bad magic %q", string(data[:magicLen]))
	}
	nsec, err := parseV3Header(data[magicLen:v3HeaderLen])
	if err != nil {
		return nil, err
	}
	tableEnd := v3HeaderLen + nsec*v3TableEntry + 4
	if len(data) < tableEnd {
		return nil, fmt.Errorf("geosir: GSIR3 section table truncated")
	}
	secs, err := parseV3Rows(data[v3HeaderLen:tableEnd], uint64(len(data)))
	if err != nil {
		return nil, err
	}
	if end := secs[nsec-1].off + secs[nsec-1].len; end != uint64(len(data)) {
		return nil, fmt.Errorf("geosir: %d trailing bytes after final section", uint64(len(data))-end)
	}
	return secs, nil
}

// v3Reader is the verified section map of a GSIR3 image plus the decode
// strategy (alias in place vs copy).
type v3Reader struct {
	sec   map[string][]byte
	alias bool
}

// v3View is the typed view of one section (see view).
func v3View[T any](r *v3Reader, tag string) []T { return view[T](r.sec[tag], r.alias) }

// v3Verify checks every section CRC and returns the section map plus
// the tags that failed. Damage never panics and never reaches assembly.
func v3Verify(data []byte, secs []v3Section) (map[string][]byte, []string) {
	m := make(map[string][]byte, len(secs))
	var bad []string
	for _, s := range secs {
		payload := data[s.off : s.off+s.len]
		if crc32.ChecksumIEEE(payload) != s.crc {
			bad = append(bad, s.tag)
			continue
		}
		m[s.tag] = payload
	}
	return m, bad
}

// v3Options is the parsed OPTS section.
type v3Options struct {
	opts      Options
	nImages   int
	nShapes   int
	nEntries  int
	nVerts    int
	nRawVerts int
}

func parseV3Options(b []byte) (v3Options, error) {
	c := cursor{b: b}
	var o v3Options
	o.opts.Alpha = c.f64()
	o.opts.Beta = c.f64()
	o.opts.Tau = c.f64()
	o.opts.AngleTol = c.f64()
	hc := c.u32()
	counts := [5]uint32{c.u32(), c.u32(), c.u32(), c.u32(), c.u32()}
	backend := c.u32()
	_ = c.u32()
	if c.err != nil || c.remaining() != 0 {
		return v3Options{}, fmt.Errorf("geosir: OPTS section is %d bytes, want %d", len(b), v3OptsLen)
	}
	if hc > maxHashCurves {
		return v3Options{}, fmt.Errorf("geosir: implausible hash-curve count %d", hc)
	}
	for _, n := range counts {
		if n > maxCount {
			return v3Options{}, fmt.Errorf("geosir: implausible count %d in OPTS", n)
		}
	}
	if backend != v3KDTree {
		return v3Options{}, fmt.Errorf("geosir: unknown backend code %d", backend)
	}
	o.opts.HashCurves = int(hc)
	o.nImages, o.nShapes, o.nEntries = int(counts[0]), int(counts[1]), int(counts[2])
	o.nVerts, o.nRawVerts = int(counts[3]), int(counts[4])
	return o, nil
}

// rawImages parses the raw family into per-image shape lists (the same
// payload a GSIR2 stream carries), for the slow rebuild path and for
// shape construction during fast assembly. IMGS is a framed stream: no
// count it declares is used before the bytes behind it are known to
// exist.
func (r *v3Reader) rawImages(o v3Options) ([]savedImage, error) {
	c := cursor{b: r.sec["IMGS"]}
	nimg := int(c.u32())
	if c.err != nil || nimg != o.nImages || nimg > c.remaining()/8 {
		return nil, fmt.Errorf("geosir: IMGS declares %d images in %d bytes, OPTS %d", nimg, c.remaining(), o.nImages)
	}
	rawv := v3View[geom.Point](r, "RAWV")
	shpm := v3View[int32](r, "SHPM")
	out := make([]savedImage, 0, nimg)
	sid := 0
	for i := 0; i < nimg; i++ {
		id := int(int32(c.u32()))
		nsh := int(c.u32())
		if nsh < 0 || nsh > o.nShapes-sid {
			return nil, fmt.Errorf("geosir: IMGS declares more shapes than SHPM holds")
		}
		img := savedImage{id: id, shapes: make([]Shape, 0, nsh)}
		for j := 0; j < nsh; j++ {
			row := shpm[sid*4 : sid*4+4]
			flags, off, n := row[0], row[1], row[2]
			if off < 0 || n < 0 || int(off)+int(n) > len(rawv) {
				return nil, fmt.Errorf("geosir: shape %d raw range [%d,+%d) outside RAWV", sid, off, n)
			}
			img.shapes = append(img.shapes, Shape{
				Pts:    rawv[off : int(off)+int(n) : int(off)+int(n)],
				Closed: flags&1 == 1,
			})
			sid++
		}
		out = append(out, img)
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("geosir: %d trailing bytes in IMGS", c.remaining())
	}
	if sid != o.nShapes {
		return nil, fmt.Errorf("geosir: IMGS covers %d shapes, SHPM holds %d", sid, o.nShapes)
	}
	return out, nil
}

// assembleV3 stitches a frozen engine from sections that are verified
// and that v3Check has passed: O(n) slice views and pointer fills, no
// geometry. The reader's alias flag decides whether array sections are
// served in place (mmap) or copied.
func assembleV3(r *v3Reader, o v3Options) (*Engine, error) {
	images, err := r.rawImages(o)
	if err != nil {
		return nil, err
	}
	// Shapes, in id order (= image-group order).
	shapes := make([]core.Shape, 0, o.nShapes)
	for _, img := range images {
		for _, p := range img.shapes {
			shapes = append(shapes, core.Shape{ID: len(shapes), Image: img.id, Poly: p})
		}
	}

	base, err := core.BaseFromParts(core.BaseSpec{
		Opts:       coreOptsFor(o.opts),
		Shapes:     shapes,
		EntryMeta:  v3View[core.EntryMeta](r, "ENTM"),
		EntryTrans: v3View[geom.Transform](r, "ENTT"),
		Verts:      v3View[geom.Point](r, "EVTX"),
		EntryOff:   v3View[int32](r, "EOFF"),
	})
	if err != nil {
		return nil, err
	}

	// Diameter angles and per-image graphs.
	diamAng := make(map[int]float64, o.nShapes)
	for sid, a := range v3View[float64](r, "DANG") {
		diamAng[sid] = a
	}
	graphs, imageOrder, err := parseV3Graphs(r.sec["GRPH"], o)
	if err != nil {
		return nil, err
	}
	db, err := query.DBFromParts(query.DBParts{
		Opts:    queryOptsFor(o.opts),
		Base:    base,
		Images:  imageOrder,
		Graphs:  graphs,
		DiamAng: diamAng,
	})
	if err != nil {
		return nil, err
	}

	eng := New(o.opts)
	eng.db = db

	// Geometric hash table from the persisted quadruples — map inserts
	// only, no curve geometry.
	family, err := geohash.NewFamily(o.opts.HashCurves)
	if err != nil {
		return nil, err
	}
	eng.family = family
	eng.table = geohash.NewTable(family)
	quads := v3View[int32](r, "QUAD")
	for sid := 0; sid < o.nShapes; sid++ {
		row := quads[sid*4 : sid*4+4]
		if row[0] < 0 {
			continue // shape skipped by the hash table at freeze
		}
		q := geohash.Quadruple{int(row[0]), int(row[1]), int(row[2]), int(row[3])}
		if err := eng.table.Insert(sid, q); err != nil {
			return nil, fmt.Errorf("geosir: rehashing shape %d: %w", sid, err)
		}
	}

	// ANN index from the persisted signature family.
	if eng.annPre, err = parseV3Ann(r); err != nil {
		return nil, err
	}
	eng.buildANN()
	eng.frozen = true
	return eng, nil
}

// coreOptsFor / queryOptsFor mirror New's option derivation so an
// assembled engine reports identical effective options.
func queryOptsFor(opts Options) query.Options {
	qopts := query.DefaultOptions()
	if opts.Alpha > 0 {
		qopts.Core.Alpha = opts.Alpha
	}
	if opts.Beta > 0 {
		qopts.Core.Beta = opts.Beta
	}
	if opts.Tau > 0 {
		qopts.Tau = opts.Tau
	}
	if opts.AngleTol > 0 {
		qopts.AngleTol = opts.AngleTol
	}
	return qopts
}

func coreOptsFor(opts Options) core.Options {
	return queryOptsFor(opts).Core
}

// parseV3Graphs parses GRPH, a framed stream like IMGS: every count is
// bounded by the bytes left (4 per shape id, 12 per edge) before it
// sizes an allocation.
func parseV3Graphs(b []byte, o v3Options) (map[int]*query.ImageGraph, []int, error) {
	c := cursor{b: b}
	nimg := int(c.u32())
	if c.err != nil || nimg != o.nImages {
		return nil, nil, fmt.Errorf("geosir: GRPH declares %d images, OPTS %d", nimg, o.nImages)
	}
	graphs := make(map[int]*query.ImageGraph, nimg)
	order := make([]int, 0, nimg)
	for i := 0; i < nimg; i++ {
		id := int(int32(c.u32()))
		nsh := int(c.u32())
		if c.err != nil || nsh < 0 || nsh > c.remaining()/4 {
			return nil, nil, fmt.Errorf("geosir: GRPH image %d has implausible shape count", i)
		}
		shapeIDs := make([]int, nsh)
		for j := range shapeIDs {
			sid := int(int32(c.u32()))
			if sid < 0 || sid >= o.nShapes {
				return nil, nil, fmt.Errorf("geosir: GRPH image %d references shape %d of %d", id, sid, o.nShapes)
			}
			shapeIDs[j] = sid
		}
		nedges := int(c.u32())
		if c.err != nil || nedges < 0 || nedges > c.remaining()/12 {
			return nil, nil, fmt.Errorf("geosir: GRPH image %d has implausible edge count", id)
		}
		edges := make([]query.GraphEdge, 0, nedges)
		for j := 0; j < nedges; j++ {
			from := int(int32(c.u32()))
			to := int(int32(c.u32()))
			lbl := c.u32()
			var rel query.Rel
			switch lbl {
			case v3RelContain:
				rel = query.RelContain
			case v3RelOverlap:
				rel = query.RelOverlap
			default:
				return nil, nil, fmt.Errorf("geosir: GRPH image %d edge %d has unknown label %d", id, j, lbl)
			}
			edges = append(edges, query.GraphEdge{From: from, To: to, Label: rel})
		}
		if _, dup := graphs[id]; dup {
			return nil, nil, fmt.Errorf("geosir: GRPH repeats image %d", id)
		}
		graphs[id] = query.GraphFromParts(id, shapeIDs, edges)
		order = append(order, id)
	}
	if c.remaining() != 0 {
		return nil, nil, fmt.Errorf("geosir: %d trailing bytes in GRPH", c.remaining())
	}
	return graphs, order, nil
}

// parseV3Ann reads the signature family: ANNP states how many signature
// words ANNS must hold.
func parseV3Ann(r *v3Reader) (*annPreload, error) {
	c := cursor{b: r.sec["ANNP"]}
	seed := c.u64()
	gridRes, bands, rows, n := c.u32(), c.u32(), c.u32(), c.u32()
	p, err := annParams(seed, gridRes, bands, rows, n)
	if err != nil {
		return nil, err
	}
	sigs := v3View[uint64](r, "ANNS")
	if want := int(n) * p.Bands * p.Rows; want != len(sigs) {
		return nil, fmt.Errorf("geosir: ANNS holds %d signature words, ANNP declares %d", len(sigs), want)
	}
	return &annPreload{params: p, sigs: sigs, n: int(n)}, nil
}

// openV3 is the front half of both loaders: layout, checksums, OPTS.
// It returns the reader over the sections that verified and the tags of
// those that did not.
func openV3(data []byte, alias bool) (*v3Reader, v3Options, []string, error) {
	secs, err := parseV3Layout(data)
	if err != nil {
		return nil, v3Options{}, nil, err
	}
	m, bad := v3Verify(data, secs)
	optsB, ok := m["OPTS"]
	if !ok {
		return nil, v3Options{}, nil, fmt.Errorf("geosir: GSIR3 snapshot has no intact OPTS section")
	}
	o, err := parseV3Options(optsB)
	return &v3Reader{sec: m, alias: alias}, o, bad, err
}

// loadGSIR3Bytes runs the strict load over a complete byte image: any
// checksum or framing damage anywhere fails it.
func loadGSIR3Bytes(data []byte, alias bool) (*Engine, error) {
	r, o, bad, err := openV3(data, alias)
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("geosir: section %s checksum mismatch", bad[0])
	}
	if err := v3Check(r.sec, &o, false); err != nil {
		return nil, err
	}
	return assembleV3(r, o)
}

// loadPartialGSIR3Bytes salvages what a damaged GSIR3 image still
// proves intact. Derived-section damage falls back to the slow rebuild
// from the raw family (deterministic, so the rebuilt engine answers
// identically to the original); raw-family or structural damage is
// unrecoverable.
func loadPartialGSIR3Bytes(data []byte) (*Engine, *Recovery, error) {
	// Copy, never alias: a salvage result must not pin the (possibly
	// temporary) source bytes.
	r, o, bad, err := openV3(data, false)
	if err != nil {
		return nil, nil, fmt.Errorf("geosir: unrecoverable GSIR3 snapshot: %w", err)
	}
	for _, tag := range bad {
		if v3RawTags[tag] {
			return nil, nil, fmt.Errorf("geosir: unrecoverable damage in raw section %s", tag)
		}
	}
	rec := &Recovery{Format: "GSIR3", ImagesExpected: o.nImages}
	if len(bad) == 0 && v3Check(r.sec, &o, false) == nil {
		if eng, err := assembleV3(r, o); err == nil {
			rec.ImagesLoaded = o.nImages
			return eng, rec, nil
		}
	}
	// Damaged derived sections, or a fast assembly that failed despite
	// verified checksums (e.g. a writer/reader version skew in a derived
	// section): account the loss and rebuild the slow way.
	rec.AuxDropped = max(len(bad), 1)
	if err := v3Check(r.sec, &o, true); err != nil {
		return nil, nil, fmt.Errorf("geosir: unrecoverable raw image data: %w", err)
	}
	images, err := r.rawImages(o)
	if err != nil {
		return nil, nil, fmt.Errorf("geosir: unrecoverable raw image data: %w", err)
	}
	eng := New(o.opts)
	for _, img := range images {
		if err := eng.AddImage(img.id, img.shapes); err != nil {
			return nil, nil, fmt.Errorf("geosir: image %d: %w", img.id, err)
		}
		rec.ImagesLoaded++
	}
	if err := freezeLoaded(eng); err != nil {
		return nil, nil, err
	}
	return eng, rec, nil
}

// readAllWithMagic re-assembles the complete byte image of a stream
// whose magic has already been consumed.
func readAllWithMagic(magic string, r io.Reader) ([]byte, error) {
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	data := make([]byte, 0, len(magic)+len(rest))
	data = append(data, magic...)
	return append(data, rest...), nil
}

// peekGSIR3 parses only the header, table, and OPTS payload of a GSIR3
// stream (magic already consumed), verifying the table and OPTS
// checksums. Sequential: pad bytes up to OPTS are discarded, array
// sections after it are never read.
func peekGSIR3(r io.Reader) (SnapshotInfo, error) {
	var hdr [v3HeaderLen - magicLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return SnapshotInfo{}, fmt.Errorf("geosir: reading GSIR3 header: %w", err)
	}
	nsec, err := parseV3Header(hdr[:])
	if err != nil {
		return SnapshotInfo{}, err
	}
	table, err := readCapped(r, nsec*v3TableEntry+4)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("geosir: reading GSIR3 section table: %w", err)
	}
	// The stream's length is unknown, so rows are bounded by nothing but
	// each other; what is read below is bounded by v3OptsLen.
	secs, err := parseV3Rows(table, math.MaxInt64)
	if err != nil {
		return SnapshotInfo{}, err
	}
	i := slices.IndexFunc(secs, func(s v3Section) bool { return s.tag == "OPTS" })
	if i < 0 || secs[i].len != v3OptsLen {
		return SnapshotInfo{}, fmt.Errorf("geosir: GSIR3 snapshot has no %d-byte OPTS section", v3OptsLen)
	}
	opts := secs[i]
	if _, err := io.CopyN(io.Discard, r, int64(opts.off)-int64(v3HeaderLen+len(table))); err != nil {
		return SnapshotInfo{}, fmt.Errorf("geosir: seeking OPTS section: %w", err)
	}
	payload, err := readCapped(r, v3OptsLen)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("geosir: reading OPTS section: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != opts.crc {
		return SnapshotInfo{}, fmt.Errorf("geosir: OPTS section checksum mismatch")
	}
	o, err := parseV3Options(payload)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return SnapshotInfo{
		Format:     FormatGSIR3,
		FormatName: "GSIR3",
		Options:    o.opts,
		Images:     o.nImages,
		Shapes:     o.nShapes,
		Sections:   nsec,
	}, nil
}

// engineStorage records how an engine's snapshot is backed, for /statz
// reporting and unmap lifecycle. nil means heap-built (AddImage+Freeze
// or a copy-decode load).
type engineStorage struct {
	mapping *mmap.Mapping
}

// StorageStats describes how an engine's index is backed.
type StorageStats struct {
	// LoadMode is "heap" (all structures on the Go heap) or "mmap"
	// (array sections served in place from a mapped snapshot).
	LoadMode string
	// MappedBytes is the size of the backing mapping (0 for heap).
	MappedBytes int64
	// ResidentBytes estimates how much of the mapping is currently in
	// memory (-1: no estimate available on this platform; 0 for heap).
	ResidentBytes int64
}

// StorageStats reports how this engine's index is backed.
func (e *Engine) StorageStats() StorageStats {
	if e.stor == nil || e.stor.mapping == nil {
		return StorageStats{LoadMode: "heap"}
	}
	return StorageStats{
		LoadMode:      "mmap",
		MappedBytes:   int64(e.stor.mapping.Len()),
		ResidentBytes: e.stor.mapping.Resident(),
	}
}

// Close releases the engine's snapshot mapping, if any. The engine must
// not be queried afterward: structures that aliased the mapping are
// gone. Heap-backed engines need no Close (it is a no-op); mmap-backed
// engines that are simply dropped are unmapped by a finalizer once
// unreachable (at which point no query can be in flight).
func (e *Engine) Close() error {
	if e.stor == nil || e.stor.mapping == nil {
		return nil
	}
	runtime.SetFinalizer(e, nil)
	m := e.stor.mapping
	e.stor.mapping = nil
	return m.Close()
}

// LoadFileMmap opens a GSIR3 snapshot by mapping it and serving the
// array sections in place: open cost is CRC verification plus O(n)
// pointer stitching — no geometry, no per-element decode — and the
// page cache decides residency. Falls back with an error (it does NOT
// silently heap-load) when the file is not GSIR3 or the platform/build
// cannot map or cast; callers wanting the fallback use LoadAnyMode.
func LoadFileMmap(path string) (*Engine, error) {
	if !mmap.Supported() || !mmap.CanCast() {
		return nil, fmt.Errorf("geosir: mmap load unsupported on this platform/build: %w", mmap.ErrUnsupported)
	}
	m, err := mmap.Map(path)
	if err != nil {
		return nil, err
	}
	eng, err := loadGSIR3Bytes(m.Data(), true)
	if err != nil {
		m.Close()
		return nil, err
	}
	eng.stor = &engineStorage{mapping: m}
	runtime.SetFinalizer(eng, func(e *Engine) { e.Close() })
	return eng, nil
}
