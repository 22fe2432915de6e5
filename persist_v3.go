package geosir

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/geohash"
	"repro/internal/geom"
	"repro/internal/mmap"
	"repro/internal/query"
	"repro/internal/sectable"
)

// GSIR3 is the mmap-friendly frozen-shard format: the on-disk form of
// every hot query-time structure *is* its runtime form, so opening a
// snapshot is a map + verify + O(shapes + copies) stitching instead of a
// geometry rebuild, and the OS page cache becomes the storage
// hierarchy for bigger-than-RAM bases.
//
// The container — a header, a checksummed table of tagged sections and
// their 8-aligned payloads — is internal/sectable's. Everything is
// little-endian. Section payloads are contiguous arrays
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
// derived family is the frozen index: a normalized copy is stored as what
// determines it — its shape (RAWV), its α-diameter pair in its meta (ENTM)
// — plus its vertices' distance-field cells (ECEL, 2 B a vertex), and its
// vertices are derived from these when a search reads them; then
// geometric-hash quadruples (QUAD), diameter angles (DANG) and image graphs
// (GRPH). Sections are found by tag: one the table does not name is
// checksummed like the rest and otherwise ignored, and a file without ECEL
// — every file written before the row — has its cells derived on load.
// Earlier writers emitted six kinds of these: GBND; the kd-tree (KDTP,
// KDTI, KDTB) and vertex → entry map (VENT) that only the paper's climb
// reads, which is built on its first use instead
// (core.Base.BuildRangeIndex); a segment grid per entry (GRDH, GSEG, GCEL,
// GIDS), where a search now reads the copy's own edges; every copy's
// vertices, offsets and transforms (EVTX, EOFF, ENTT); and the ANN
// signatures (ANNP, ANNS), where the index is derived at its first probe
// (Engine.ANNIndex).
//
// Integrity: the decoder verifies the table checksum and then every
// section's CRC32 before assembly — corrupt bytes are never served. A
// section that fails its CRC, or whose payload a short file tore off (the
// table's own CRC still vouches for its row), is damage: in the raw
// family it is unrecoverable, anywhere else the engine is rebuilt from the
// intact raw family and the report counts the loss (not Complete).
// Assembly after verification trusts element values and only re-checks
// the shape invariants slice indexing depends on.

const (
	magicGSIR3 = sectable.Magic

	// v3OptsLen is the OPTS payload: 4 float64 options + 8 uint32 words
	// (hash curves, five counts, the backend word, and the field layout
	// ECEL's cells were computed under — core.FieldLayout; 0 in files of
	// earlier writers, whose ECEL, if any, is derived again).
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
	// count is how many elements the OPTS counts promise (nil for a
	// framed stream).
	count func(o *v3Options) int
	// optional marks the row files of earlier writers lack (ECEL): absent,
	// the loader derives it, over the count those files' copy vertices
	// (EVTX) vouch for; present, it is checked like any other.
	optional bool
}

const (
	v3Raw, v3Derived     = true, false
	v3Optional, v3Always = true, false
)

func v3One(*v3Options) int        { return 1 }
func v3Shapes(o *v3Options) int   { return o.nShapes }
func v3Entries(o *v3Options) int  { return o.nEntries }
func v3Verts(o *v3Options) int    { return o.nVerts }
func v3RawVerts(o *v3Options) int { return o.nRawVerts }

// v3Table is the GSIR3 section set, in file order.
var v3Table = []v3Row{
	{"OPTS", v3Raw, v3OptsLen, v3One, v3Always},
	{"IMGS", v3Raw, 0, nil, v3Always},            // u32 n | n × { u32 image id | u32 shapes }
	{"SHPM", v3Raw, 16, v3Shapes, v3Always},      // i32 flags (bit0 = closed) | RAWV offset | vertices | rsvd
	{"RAWV", v3Raw, 16, v3RawVerts, v3Always},    // geom.Point
	{"ENTM", v3Derived, 16, v3Entries, v3Always}, // core.EntryMeta
	{"ECEL", v3Derived, 2, v3Verts, v3Optional},  // u16 field cell of every vertex of every copy, copy by copy
	{"QUAD", v3Derived, 16, v3Shapes, v3Always},  // 4 × i32 hash cell, all -1: shape not in the table
	{"DANG", v3Derived, 8, v3Shapes, v3Always},   // f64 diameter angle
	{"GRPH", v3Derived, 0, nil, v3Always},        // u32 n | n × { image id | shapes | edges }
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
		case !ok && row.optional:
			if want := 16 * int64(row.count(o)); int64(len(sec["EVTX"])) != want {
				return fmt.Errorf("geosir: GSIR3 snapshot has no section %s, and %d bytes of EVTX where the vertices it is derived for take %d", row.tag, len(sec["EVTX"]), want)
			}
		case !ok:
			return fmt.Errorf("geosir: GSIR3 snapshot missing section %s", row.tag)
		case row.elem == 0:
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

// Save writes the engine's configuration, image base and frozen index to w
// as GSIR3: the table's rows, in the table's order. The encoding is
// canonical: saving, loading, and saving again reproduces the stream byte
// for byte. The derived sections *are* the frozen index, so an engine
// with shapes must be frozen (else ErrNotFrozen); one with none is written
// as a file of zero counts, which loads empty and frozen.
func (e *Engine) Save(w io.Writer) error {
	built, err := e.buildV3Sections()
	if err != nil {
		return err
	}
	secs := make([]sectable.Payload, len(v3Table))
	for i, row := range v3Table {
		payload, ok := built[row.tag]
		if !ok {
			return fmt.Errorf("geosir: internal error: section %s not built", row.tag)
		}
		secs[i] = sectable.Payload{Tag: row.tag, Data: payload}
	}
	return sectable.Write(w, secs)
}

// savedImage is one image's shapes as IMGS lists them.
type savedImage struct {
	id     int
	shapes []Shape
}

// buildV3Sections flattens the frozen engine into its section payloads,
// by tag. Array sections are put from the very element types the loader
// views them as, so the two layouts cannot drift apart.
func (e *Engine) buildV3Sections() (map[string][]byte, error) {
	base := e.db.Base()
	if !e.frozen && base.NumShapes() > 0 {
		return nil, ErrNotFrozen
	}
	parts := base.FrozenParts()
	shapes := base.Shapes()
	graphs := e.db.Graphs()
	out := make(map[string][]byte, len(v3Table))

	// IMGS / SHPM / RAWV — the raw image base — and GRPH, the per-image
	// topology graphs (vertices + labeled edges), from one walk of the
	// images in AddImage order: one graph an image, its shape ids in id
	// order (query.DBFromParts holds a loaded engine's graphs to that).
	imgs := appendU32(nil, uint32(len(graphs)))
	grph := appendU32(nil, uint32(len(graphs)))
	var shpm []int32
	var rawv []byte
	for _, g := range graphs {
		imgs = appendU32(imgs, uint32(g.Image))
		imgs = appendU32(imgs, uint32(len(g.Shapes)))
		grph = appendU32(grph, uint32(g.Image))
		grph = appendU32(grph, uint32(len(g.Shapes)))
		for _, sid := range g.Shapes {
			p := shapes[sid].Poly
			flags := int32(0)
			if p.Closed {
				flags = 1
			}
			shpm = append(shpm, flags, int32(len(rawv)/16), int32(len(p.Pts)), 0)
			rawv = put(rawv, p.Pts)
			grph = appendU32(grph, uint32(sid))
		}
		grph = appendU32(grph, uint32(len(g.Edges)))
		for _, ed := range g.Edges {
			lbl := uint32(v3RelContain)
			if ed.Label == query.RelOverlap {
				lbl = v3RelOverlap
			} else if ed.Label != query.RelContain {
				return nil, fmt.Errorf("geosir: image %d has unknown edge label %q", g.Image, ed.Label)
			}
			grph = appendU32(grph, uint32(ed.From))
			grph = appendU32(grph, uint32(ed.To))
			grph = appendU32(grph, lbl)
		}
	}
	out["IMGS"], out["SHPM"], out["RAWV"], out["GRPH"] = imgs, put(nil, shpm), rawv, grph

	out["ENTM"], out["ECEL"] = put(nil, parts.EntryMeta), put(nil, parts.Cells)

	// QUAD / DANG — geometric-hash quadruples and diameter angles, per
	// shape. A shape the hash table skipped (degenerate canonical
	// normalization) is stored as an all -1 quadruple.
	quad := make([]int32, 0, 4*len(shapes))
	for _, s := range shapes {
		if q, ok := e.table.Quad(s.ID); ok {
			for _, c := range q {
				quad = append(quad, int32(c))
			}
		} else {
			quad = append(quad, -1, -1, -1, -1)
		}
	}
	out["QUAD"], out["DANG"] = put(nil, quad), put(nil, e.db.DiamAngles())

	opt := make([]byte, 0, v3OptsLen)
	opt = appendF64(opt, e.opts.Alpha)
	opt = appendF64(opt, e.opts.Beta)
	opt = appendF64(opt, e.opts.Tau)
	opt = appendF64(opt, e.opts.AngleTol)
	opt = appendU32(opt, uint32(e.opts.HashCurves))
	opt = appendU32(opt, uint32(len(graphs)))
	opt = appendU32(opt, uint32(len(shapes)))
	opt = appendU32(opt, uint32(len(parts.EntryMeta)))
	opt = appendU32(opt, uint32(len(parts.Cells)))
	opt = appendU32(opt, uint32(len(rawv)/16))
	opt = appendU32(opt, v3KDTree)
	out["OPTS"] = appendU32(opt, core.FieldLayout)
	return out, nil
}

// v3Reader is the verified section map of a GSIR3 image plus the decode
// strategy (alias in place vs copy).
type v3Reader struct {
	sec   map[string][]byte
	alias bool
}

// v3View is the typed view of one section (see view).
func v3View[T any](r *v3Reader, tag string) []T { return view[T](r.sec[tag], r.alias) }

// v3Verify checks every section against the bytes present and its CRC32,
// and returns the sections that verify, by tag, the tags of those that do
// not, and the first one's fault. Damage never panics and never reaches
// assembly.
func v3Verify(data []byte, secs []sectable.Section) (map[string][]byte, []string, error) {
	m := make(map[string][]byte, len(secs))
	var bad []string
	var first error
	for _, s := range secs {
		var fault error
		if end := s.Off + s.Len; end > uint64(len(data)) {
			fault = fmt.Errorf("geosir: section %s [%d,+%d) runs past the end of the file (%d bytes)", s.Tag, s.Off, s.Len, len(data))
		} else if payload := data[s.Off:end]; crc32.ChecksumIEEE(payload) != s.CRC {
			fault = fmt.Errorf("geosir: section %s checksum mismatch", s.Tag)
		} else {
			m[s.Tag] = payload
			continue
		}
		bad = append(bad, s.Tag)
		if first == nil {
			first = fault
		}
	}
	return m, bad, first
}

// v3Options is the parsed OPTS section.
type v3Options struct {
	opts      Options
	nImages   int
	nShapes   int
	nEntries  int
	nVerts    int
	nRawVerts int
	// fieldLayout is the cell grid ECEL was computed under (core.FieldLayout).
	fieldLayout uint32
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
	o.fieldLayout = c.u32()
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
func assembleV3(r *v3Reader, o v3Options, images []savedImage) (*Engine, error) {
	// Shapes, in id order (= image-group order).
	shapes := make([]core.Shape, 0, o.nShapes)
	for _, img := range images {
		for _, p := range img.shapes {
			shapes = append(shapes, core.Shape{ID: len(shapes), Image: img.id, Poly: p})
		}
	}

	spec := core.BaseSpec{
		Opts:      queryOptions(o.opts).Core,
		Shapes:    shapes,
		EntryMeta: v3View[core.EntryMeta](r, "ENTM"),
	}
	if _, ok := r.sec["ECEL"]; ok && o.fieldLayout == core.FieldLayout {
		spec.Cells = v3View[uint16](r, "ECEL")
	} else {
		// No row, or one of another cell grid: derived, over the vertex
		// count that the row or the legacy EVTX holds (v3Check).
		spec.Cells, spec.DeriveCells = make([]uint16, o.nVerts), true
	}
	base, err := core.BaseFromParts(spec)
	if err != nil {
		return nil, err
	}

	// Diameter angles and per-image graphs.
	graphs, err := parseV3Graphs(r.sec["GRPH"], o)
	if err != nil {
		return nil, err
	}
	db, err := query.DBFromParts(query.DBParts{
		Opts:    queryOptions(o.opts),
		Base:    base,
		Graphs:  graphs,
		DiamAng: v3View[float64](r, "DANG"),
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
	eng.frozen = true
	return eng, nil
}

// parseV3Graphs parses GRPH, a framed stream like IMGS: every count is
// bounded by the bytes left (4 per shape id, 12 per edge) before it
// sizes an allocation.
func parseV3Graphs(b []byte, o v3Options) ([]*query.ImageGraph, error) {
	c := cursor{b: b}
	nimg := int(c.u32())
	if c.err != nil || nimg != o.nImages {
		return nil, fmt.Errorf("geosir: GRPH declares %d images, OPTS %d", nimg, o.nImages)
	}
	graphs := make([]*query.ImageGraph, 0, nimg)
	seen := make(map[int]bool, nimg)
	for i := 0; i < nimg; i++ {
		id := int(int32(c.u32()))
		nsh := int(c.u32())
		if c.err != nil || nsh < 0 || nsh > c.remaining()/4 {
			return nil, fmt.Errorf("geosir: GRPH image %d has implausible shape count", i)
		}
		shapeIDs := make([]int, nsh)
		for j := range shapeIDs {
			sid := int(int32(c.u32()))
			if sid < 0 || sid >= o.nShapes {
				return nil, fmt.Errorf("geosir: GRPH image %d references shape %d of %d", id, sid, o.nShapes)
			}
			shapeIDs[j] = sid
		}
		nedges := int(c.u32())
		if c.err != nil || nedges < 0 || nedges > c.remaining()/12 {
			return nil, fmt.Errorf("geosir: GRPH image %d has implausible edge count", id)
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
				return nil, fmt.Errorf("geosir: GRPH image %d edge %d has unknown label %d", id, j, lbl)
			}
			edges = append(edges, query.GraphEdge{From: from, To: to, Label: rel})
		}
		if seen[id] {
			return nil, fmt.Errorf("geosir: GRPH repeats image %d", id)
		}
		seen[id] = true
		graphs = append(graphs, query.GraphFromParts(id, shapeIDs, edges))
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("geosir: %d trailing bytes in GRPH", c.remaining())
	}
	return graphs, nil
}

// loadGSIR3 is the GSIR3 decoder, over a complete byte image. A file
// that verifies and passes v3Check is assembled, its array sections served
// in place from data when alias is set. Damage to the container, OPTS or
// the raw family is unrecoverable. Damage anywhere else — a section that
// fails its checksum or was torn off, one the table's shape check
// refuses, an assembly that fails — costs only the derived index: the
// engine is rebuilt from the raw family (deterministically, so it answers
// as the original, and never aliasing data), and the report counts the
// loss in AuxDropped. The engine aliases data exactly when it is complete.
func loadGSIR3(data []byte, alias bool) (*Engine, *Recovery, error) {
	secs, err := sectable.Parse(data)
	if err != nil {
		return nil, nil, fmt.Errorf("geosir: unrecoverable GSIR3 snapshot: %w", err)
	}
	sec, bad, verr := v3Verify(data, secs)
	optsB, ok := sec["OPTS"]
	if !ok {
		return nil, nil, fmt.Errorf("geosir: GSIR3 snapshot has no intact OPTS section")
	}
	o, err := parseV3Options(optsB)
	if err != nil {
		return nil, nil, err
	}
	for _, tag := range bad {
		if v3RawTags[tag] {
			return nil, nil, fmt.Errorf("geosir: unrecoverable damage in raw section %s", tag)
		}
	}
	r := &v3Reader{sec: sec, alias: alias}
	if err := v3Check(sec, &o, true); err != nil {
		return nil, nil, fmt.Errorf("geosir: unrecoverable raw image data: %w", err)
	}
	images, err := r.rawImages(o)
	if err != nil {
		return nil, nil, fmt.Errorf("geosir: unrecoverable raw image data: %w", err)
	}

	rec := &Recovery{Format: "GSIR3", ImagesExpected: o.nImages, Err: verr}
	if rec.Err == nil {
		rec.Err = v3Check(sec, &o, false)
	}
	if rec.Err == nil {
		eng, err := assembleV3(r, o, images)
		if err == nil {
			rec.ImagesLoaded = o.nImages
			return eng, rec, nil
		}
		rec.Err = err
	}
	if rec.Err != nil {
		rec.AuxDropped = max(len(bad), 1)
	}
	if alias { // the rebuilt engine holds its shapes on the heap
		r.alias = false
		images, _ = r.rawImages(o) // it parsed these bytes above
	}
	eng := New(o.opts)
	for _, img := range images {
		if err = eng.AddImage(img.id, img.shapes); err != nil {
			err = fmt.Errorf("geosir: image %d: %w", img.id, err)
			break
		}
		rec.ImagesLoaded++
	}
	if err == nil {
		err = eng.Freeze()
	}
	if err != nil {
		if rec.Err != nil { // what a read that does not rebuild stops at
			err = fmt.Errorf("%w (and the raw sections do not rebuild: %v)", rec.Err, err)
		}
		return nil, nil, err
	}
	return eng, rec, nil
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

// errNotMapped marks a file mapGSIR3 left undecoded.
var errNotMapped = errors.New("geosir: not mapped")

// mapGSIR3 maps path and runs the GSIR3 decoder over the mapping. A
// complete engine keeps the mapping and serves from it; a salvage is on
// the heap and the mapping is released. A platform or build that cannot
// map and cast, a file that does not map, and a file that is not GSIR3
// are refused with errNotMapped, undecoded.
func mapGSIR3(path string) (*Engine, *Recovery, error) {
	if !mmap.Supported() || !mmap.CanCast() {
		return nil, nil, fmt.Errorf("%w: mmap load unsupported on this platform/build: %w", errNotMapped, mmap.ErrUnsupported)
	}
	m, err := mmap.Map(path)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", errNotMapped, err)
	}
	if !bytes.HasPrefix(m.Data(), []byte(magicGSIR3)) {
		m.Close()
		return nil, nil, fmt.Errorf("%w: %s is not a GSIR3 snapshot", errNotMapped, path)
	}
	eng, rec, err := loadGSIR3(m.Data(), true)
	if err != nil || !rec.Complete() {
		m.Close()
		return eng, rec, err
	}
	eng.stor = &engineStorage{mapping: m}
	runtime.SetFinalizer(eng, func(e *Engine) { e.Close() })
	return eng, rec, nil
}
