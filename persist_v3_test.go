package geosir

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sectable"
)

// gsir3KDTreeGolden is a GSIR3 snapshot of buildEngine's base written
// while the format still carried the climb's range index, a segment grid
// per entry and the ANN signatures: besides every section of v3Table it
// holds v3LegacyTags, which the loader now ignores.
func gsir3KDTreeGolden(tb testing.TB) []byte { return testdataBytes(tb, gsir3KDTreeGoldenPath) }

const gsir3KDTreeGoldenPath = "testdata/gsir3/kdtree.gsir3"

// v3LegacyTags are the sections the golden holds and v3Table no longer
// names: the per-entry segment grids, the vertex → entry map, the kd-tree,
// every copy's transforms, vertex offsets and vertices, and the ANN
// signature family, which an engine now derives at its first probe.
var v3LegacyTags = []string{"GRDH", "GSEG", "GCEL", "GIDS", "VENT", "KDTP", "KDTI", "KDTB", "ENTT", "EOFF", "EVTX", "ANNP", "ANNS"}

// checkEngineEquivalence asserts two engines answer identically across
// exact, sketch, and approximate searches plus topological queries.
func checkEngineEquivalence(t *testing.T, want, got *Engine) {
	t.Helper()
	if got.NumImages() != want.NumImages() ||
		got.NumShapes() != want.NumShapes() ||
		got.NumEntries() != want.NumEntries() {
		t.Fatalf("counts differ: %d/%d/%d vs %d/%d/%d",
			got.NumImages(), got.NumShapes(), got.NumEntries(),
			want.NumImages(), want.NumShapes(), want.NumEntries())
	}
	if got.Options() != want.Options() {
		t.Fatalf("options differ: %+v vs %+v", got.Options(), want.Options())
	}
	ctx := context.Background()
	queries := []Shape{
		lshape(0, 0, 3).Transform(Similarity(1.4, 0.5, Pt(40, 40))),
		square(0, 0, 5).Transform(Similarity(0.7, -1.1, Pt(-3, 8))),
		triangle(0, 0, 4),
	}
	combos := []struct {
		mode Mode
		ann  AnnMode
	}{
		{ModeAuto, AnnOff}, {ModeExact, AnnOff}, {ModeApproximate, AnnOff},
		{ModeAuto, AnnApprox},
	}
	for _, c := range combos {
		for _, k := range []int{1, 3} {
			for qi, q := range queries {
				mode := c.mode
				req := SearchRequest{Query: q, K: k, Mode: mode, Ann: c.ann}
				r1, err1 := want.Search(ctx, req)
				r2, err2 := got.Search(ctx, req)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("mode %v k %d q %d: errors differ: %v vs %v", mode, k, qi, err1, err2)
				}
				if err1 != nil {
					continue
				}
				if r1.Stats != r2.Stats {
					t.Fatalf("mode %v k %d q %d: stats differ:\n%+v\n%+v", mode, k, qi, r1.Stats, r2.Stats)
				}
				if len(r1.Matches) != len(r2.Matches) {
					t.Fatalf("mode %v k %d q %d: %d vs %d matches", mode, k, qi, len(r1.Matches), len(r2.Matches))
				}
				for i := range r1.Matches {
					if r1.Matches[i] != r2.Matches[i] {
						t.Fatalf("mode %v k %d q %d: match %d differs: %+v vs %+v",
							mode, k, qi, i, r1.Matches[i], r2.Matches[i])
					}
				}
			}
		}
	}
	binds := map[string]Shape{"sq": square(0, 0, 7), "tri": triangle(0, 0, 5)}
	for _, src := range []string{"contain(sq, tri, any)", "overlap(sq, tri, any)", "similar(sq)"} {
		ids1, _, err1 := want.Query(context.Background(), src, binds)
		ids2, _, err2 := got.Query(context.Background(), src, binds)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %q: errors differ: %v vs %v", src, err1, err2)
		}
		if len(ids1) != len(ids2) {
			t.Fatalf("query %q: %v vs %v", src, ids1, ids2)
		}
		for i := range ids1 {
			if ids1[i] != ids2[i] {
				t.Fatalf("query %q: %v vs %v", src, ids1, ids2)
			}
		}
	}
}

func TestGSIR3RoundTrip(t *testing.T) {
	orig := buildEngine(t)
	data := snapshotBytes(t, orig)
	loaded, err := loadComplete(data)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Frozen() {
		t.Fatal("GSIR3 load should return a frozen engine")
	}
	checkEngineEquivalence(t, orig, loaded)
}

func TestGSIR3SaveLoadSaveByteIdentity(t *testing.T) {
	orig := buildEngine(t)
	first := snapshotBytes(t, orig)
	loaded, err := loadComplete(first)
	if err != nil {
		t.Fatal(err)
	}
	second := snapshotBytes(t, loaded)
	if !bytes.Equal(first, second) {
		t.Fatalf("GSIR3 encoding is not canonical: %d vs %d bytes", len(first), len(second))
	}
}

// TestGSIR3RequiresFrozen: the derived sections are the frozen index, so
// an unfrozen engine with shapes is not saved.
func TestGSIR3RequiresFrozen(t *testing.T) {
	eng := New(DefaultOptions())
	if err := eng.AddImage(0, []Shape{square(0, 0, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(&bytes.Buffer{}); !errors.Is(err, ErrNotFrozen) {
		t.Fatalf("Save of an unfrozen engine = %v, want ErrNotFrozen", err)
	}
}

// TestGSIR3Peek: a fresh file's section table (sectable.Parse) holds
// exactly the table's rows, in order, and no section of an older writer's
// (v3LegacyTags); the decoder reads it complete as GSIR3, with the image
// count, shapes and options saved.
func TestGSIR3Peek(t *testing.T) {
	orig := buildEngine(t)
	data := snapshotBytes(t, orig)
	rows, err := sectable.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(v3Table) {
		t.Fatalf("the file holds %d sections, the table has %d rows", len(rows), len(v3Table))
	}
	for i, r := range rows {
		if r.Tag != v3Table[i].tag || slices.Contains(v3LegacyTags, r.Tag) {
			t.Fatalf("section %d is %s, want %s", i, r.Tag, v3Table[i].tag)
		}
	}
	eng, rec, err := LoadPartial(bytes.NewReader(data))
	if err != nil || !rec.Complete() || rec.Format != "GSIR3" {
		t.Fatalf("LoadPartial = %+v, %v; want a complete GSIR3 read", rec, err)
	}
	if rec.ImagesExpected != orig.NumImages() || eng.NumShapes() != orig.NumShapes() || eng.Options() != orig.Options() {
		t.Fatalf("read %d images, %d shapes under %+v; want %d, %d under %+v", rec.ImagesExpected, eng.NumShapes(),
			eng.Options(), orig.NumImages(), orig.NumShapes(), orig.Options())
	}
}

// TestGSIR3MmapEquivalence: a GSIR3 file opened under LoadModeMmap is
// served mapped where mmap can serve it (from the heap elsewhere) and
// answers as the engine saved and as the same file opened on the heap.
func TestGSIR3MmapEquivalence(t *testing.T) {
	orig := buildEngine(t)
	path := filepath.Join(t.TempDir(), "snap.gsir3")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := openComplete(path, LoadModeMmap)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if st := m.StorageStats(); st.LoadMode != servedLoadMode(LoadModeMmap) || (st.LoadMode == "mmap") != (st.MappedBytes > 0) {
		t.Fatalf("storage stats = %+v", st)
	}
	if st := orig.StorageStats(); st.LoadMode != "heap" || st.MappedBytes != 0 {
		t.Fatalf("heap engine storage stats = %+v", st)
	}
	checkEngineEquivalence(t, orig, m)

	h, err := openComplete(path, LoadModeHeap)
	if err != nil {
		t.Fatal(err)
	}
	checkEngineEquivalence(t, h, m)
}

// TestGSIR3MmapClose: an engine opened under LoadModeMmap — mapped where
// mmap can serve it — closes twice without error and reports heap backing
// after; a heap engine's Close is a no-op.
func TestGSIR3MmapClose(t *testing.T) {
	orig := buildEngine(t)
	path := filepath.Join(t.TempDir(), "snap.gsir3")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := openComplete(path, LoadModeMmap)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.StorageStats(); st.LoadMode != servedLoadMode(LoadModeMmap) {
		t.Fatalf("storage stats = %+v", st)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if st := m.StorageStats(); st.LoadMode != "heap" {
		t.Fatalf("closed engine should report heap backing, got %+v", st)
	}
	// Heap engines Close as a no-op.
	if err := orig.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGSIR3CrossFormatEquivalence(t *testing.T) {
	e2, err := loadComplete(gsir2Golden(t))
	if err != nil {
		t.Fatal(err)
	}
	e3, err := loadComplete(snapshotBytes(t, buildEngine(t)))
	if err != nil {
		t.Fatal(err)
	}
	checkEngineEquivalence(t, e2, e3)
}

// checkMirroredPairs holds eng's stored copies to the layout the exact
// search floors through: each shape's copies in pairs, copy 2k+1 the half
// turn (1−x, −y) of copy 2k to 1e-12, vertex by vertex.
func checkMirroredPairs(t *testing.T, eng *Engine) {
	t.Helper()
	base := eng.db.Base()
	if base.NumShapes() == 0 {
		t.Fatal("no shapes to check")
	}
	for id := range base.NumShapes() {
		copies := base.EntriesOfShape(id)
		if len(copies)%2 != 0 {
			t.Fatalf("shape %d has %d copies", id, len(copies))
		}
		for k := 0; k < len(copies); k += 2 {
			pts, twin := base.Entry(copies[k]).Poly.Pts, base.Entry(copies[k+1]).Poly.Pts
			for i, p := range pts {
				if !(math.Abs(1-p.X-twin[i].X) <= 1e-12 && math.Abs(p.Y+twin[i].Y) <= 1e-12) {
					t.Fatalf("shape %d: copy %d's vertex %d is %v, not the half turn of %v", id, copies[k+1], i, twin[i], p)
				}
			}
		}
	}
}

// TestGSIR3KDTreeGolden loads a snapshot an older writer produced, with
// the per-entry grid, kd-tree and vertex → entry sections, every copy's
// vertices, offsets and transforms, the ANN signatures, and no cell row:
// heap-decoded and mapped, it answers exactly as a fresh build of the same
// base — matches and stats byte for byte, ann:approx included, from an
// index derived again — and holds its copies in half-turn pairs
// (checkMirroredPairs). Re-saving it is what a fresh build saves: it drops
// exactly those thirteen sections (v3LegacyTags), adds the cell row ECEL
// after ENTM, stamps OPTS's last word — 0 in the golden — with the cell
// grid ECEL is computed under (core.FieldLayout), and leaves every other
// byte of every other payload — OPTS's backend word 2 and the vertex count
// the cell row holds among them — as it was.
func TestGSIR3KDTreeGolden(t *testing.T) {
	fresh := buildEngine(t)
	data := gsir3KDTreeGolden(t)
	heap, err := loadComplete(data)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	checkEngineEquivalence(t, fresh, heap)
	checkMirroredPairs(t, heap)
	mapped, err := openComplete(gsir3KDTreeGoldenPath, LoadModeMmap)
	if err != nil {
		t.Fatalf("golden, mmap mode: %v", err)
	}
	defer mapped.Close()
	if got := mapped.StorageStats().LoadMode; got != servedLoadMode(LoadModeMmap) {
		t.Fatalf("golden served from %s, want %s", got, servedLoadMode(LoadModeMmap))
	}
	checkEngineEquivalence(t, fresh, mapped)
	checkMirroredPairs(t, mapped)

	resaved := snapshotBytes(t, heap)
	if !bytes.Equal(resaved, snapshotBytes(t, fresh)) {
		t.Fatal("the re-saved golden is not what a fresh build saves")
	}
	payloads := func(data []byte) ([]string, map[string][]byte) {
		rows, err := sectable.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		tags, m := make([]string, len(rows)), make(map[string][]byte, len(rows))
		for i, r := range rows {
			tags[i], m[r.Tag] = r.Tag, data[r.Off:r.Off+r.Len]
		}
		return tags, m
	}
	oldTags, old := payloads(data)
	newTags, cur := payloads(resaved)
	kept := slices.DeleteFunc(slices.Clone(oldTags), func(tag string) bool { return slices.Contains(v3LegacyTags, tag) })
	if len(kept) != len(oldTags)-len(v3LegacyTags) || slices.Contains(oldTags, "ECEL") {
		t.Fatalf("the golden holds %v, want every one of %v and no ECEL", oldTags, v3LegacyTags)
	}
	kept = slices.Insert(kept, slices.Index(kept, "ENTM")+1, "ECEL")
	if !slices.Equal(kept, newTags) {
		t.Fatalf("re-save holds %v; the golden %v less %v, with ECEL", newTags, oldTags, v3LegacyTags)
	}
	for _, tag := range newTags {
		if tag != "ECEL" && tag != "OPTS" && !bytes.Equal(cur[tag], old[tag]) {
			t.Errorf("section %s changed on re-save", tag)
		}
	}
	opts := cur["OPTS"]
	if len(opts) != 64 || binary.LittleEndian.Uint32(opts[56:]) != v3KDTree || v3KDTree != 2 {
		t.Errorf("OPTS is %d bytes with backend word %d, want 64 and 2", len(opts), binary.LittleEndian.Uint32(opts[56:]))
	}
	if stamp := binary.LittleEndian.Uint32(old["OPTS"][60:]); stamp != 0 || !bytes.Equal(opts[:60], old["OPTS"][:60]) || binary.LittleEndian.Uint32(opts[60:]) != core.FieldLayout {
		t.Errorf("OPTS re-saved as %x from %x, want its last word 0 → %#x and the rest unchanged", opts, old["OPTS"], core.FieldLayout)
	}
}

// TestGSIR3ByteFlipSweep flips one byte in every section payload in
// turn — every section a fresh file holds, and the sections only the
// golden file of an older writer holds (v3LegacyTags). Damage to a raw
// section must refuse recovery; damage to any other section must salvage
// an engine that answers identically to the original (the slow rebuild is
// deterministic). No flip reads as complete.
func TestGSIR3ByteFlipSweep(t *testing.T) {
	orig := buildEngine(t)
	q := lshape(0, 0, 3).Transform(Similarity(1.4, 0.5, Pt(40, 40)))
	want := mustSearch(t, orig, SearchRequest{Query: q, K: 3})
	type target struct {
		data []byte
		sec  sectable.Section
	}
	var targets []target
	for _, f := range []struct {
		data []byte
		only []string // nil: every section
	}{{snapshotBytes(t, orig), nil}, {gsir3KDTreeGolden(t), v3LegacyTags}} {
		secs, err := sectable.Parse(f.data)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range secs {
			if s.Len > 0 && (f.only == nil || slices.Contains(f.only, s.Tag)) {
				targets = append(targets, target{f.data, s})
			}
		}
	}
	for _, tg := range targets {
		data, s, name := tg.data, tg.sec, tg.sec.Tag
		t.Run(name, func(t *testing.T) {
			mut := bytes.Clone(data)
			mut[s.Off+s.Len/2] ^= 0x40
			if _, err := loadComplete(mut); err == nil {
				t.Fatalf("a flip in %s read as complete", name)
			}
			eng, rec, err := LoadPartial(bytes.NewReader(mut))
			if v3RawTags[name] {
				if err == nil {
					t.Fatalf("salvage from damaged raw section %s should refuse", name)
				}
				return
			}
			if err != nil {
				t.Fatalf("salvage with damaged %s: %v", name, err)
			}
			if rec.Complete() {
				t.Fatalf("recovery from damaged %s claims to be complete", name)
			}
			if rec.AuxDropped == 0 {
				t.Fatalf("recovery from damaged %s reports no dropped sections", name)
			}
			got := mustSearch(t, eng, SearchRequest{Query: q, K: 3})
			if got.Stats != want.Stats {
				t.Fatalf("salvaged engine answers differently: %+v vs %+v", got.Stats, want.Stats)
			}
			assertMatchesEqual(t, "salvaged", want.Matches, got.Matches)
		})
	}
	if len(targets) != len(v3Table)+len(v3LegacyTags) {
		t.Fatalf("swept %d sections, want the table's %d and the golden's %d older ones", len(targets), len(v3Table), len(v3LegacyTags))
	}
}

// v3SectionEnd is the offset one past section tag's payload in the GSIR3
// image data.
func v3SectionEnd(t *testing.T, data []byte, tag string) int {
	t.Helper()
	rows, err := sectable.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(rows, func(s sectable.Section) bool { return s.Tag == tag })
	if i < 0 {
		t.Fatalf("no section %s", tag)
	}
	return int(rows[i].Off + rows[i].Len)
}

// checkTornSalvage asserts that LoadPartial salvages every image of orig
// from the GSIR3 image cut, counting the torn derived sections, that it
// answers as orig, and that the read is not complete.
func checkTornSalvage(t *testing.T, orig *Engine, cut []byte) {
	t.Helper()
	if _, err := loadComplete(cut); err == nil {
		t.Fatalf("a cut to %d bytes read as complete", len(cut))
	}
	eng, rec, err := LoadPartial(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("LoadPartial of a cut to %d bytes: %v", len(cut), err)
	}
	if rec.Complete() || rec.AuxDropped == 0 || rec.ImagesLoaded != orig.NumImages() {
		t.Fatalf("cut to %d bytes: report %+v, want all %d images and the torn sections counted", len(cut), rec, orig.NumImages())
	}
	checkEngineEquivalence(t, orig, eng)
}

// TestGSIR3TornTailSalvages cuts a GSIR3 file inside its last section,
// GRPH, the image graphs — at len−1 and midway into the section. The raw
// sections are whole and verify, so LoadPartial rebuilds from them: every
// image, answering as the original, the loss reported.
func TestGSIR3TornTailSalvages(t *testing.T) {
	orig := buildEngine(t)
	data := snapshotBytes(t, orig)
	rows, err := sectable.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last.Tag != "GRPH" || last.Len < 2 {
		t.Fatalf("last section is %s of %d bytes, want GRPH", last.Tag, last.Len)
	}
	for _, n := range []int{len(data) - 1, int(last.Off + last.Len/2)} {
		checkTornSalvage(t, orig, data[:n])
	}
}

// TestGSIR3TruncationSweep cuts the file at a range of lengths. No cut
// reads as complete. A cut inside the raw sections — they run up to
// RAWV's end — is refused by LoadPartial; every cut past them salvages
// every image (checkTornSalvage). Never a panic, never silently wrong data.
func TestGSIR3TruncationSweep(t *testing.T) {
	orig := buildEngine(t)
	data := snapshotBytes(t, orig)
	rawEnd := v3SectionEnd(t, data, "RAWV")
	cuts := []int{0, 3, magicLen, sectable.HeaderLen, sectable.HeaderLen + 10,
		rawEnd - 1, rawEnd, len(data) / 4, len(data) / 2, len(data) * 3 / 4, len(data) - 1}
	for _, n := range cuts {
		if n >= rawEnd {
			checkTornSalvage(t, orig, data[:n])
			continue
		}
		if _, err := loadComplete(data[:n]); err == nil {
			t.Fatalf("a cut to %d bytes read as complete", n)
		}
		if _, _, err := LoadPartial(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("LoadPartial salvaged a cut to %d bytes, inside the raw sections (they end at %d)", n, rawEnd)
		}
	}
}

// rewriteV3 takes a GSIR3 image apart into its sections, lets edit change
// them, and writes the result back out with offsets, section CRCs and the
// table CRC re-summed: a checksum-consistent file that says something the
// writer never would.
func rewriteV3(t *testing.T, data []byte, edit func([]sectable.Payload) []sectable.Payload) []byte {
	t.Helper()
	rows, err := sectable.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]sectable.Payload, len(rows))
	for i, s := range rows {
		secs[i] = sectable.Payload{Tag: s.Tag, Data: bytes.Clone(data[s.Off : s.Off+s.Len])}
	}
	var buf bytes.Buffer
	if err := sectable.Write(&buf, edit(secs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// editV3Section is the rewriteV3 edit that changes one section's payload.
func editV3Section(tag string, change func([]byte) []byte) func([]sectable.Payload) []sectable.Payload {
	return func(secs []sectable.Payload) []sectable.Payload {
		for i := range secs {
			if secs[i].Tag == tag {
				secs[i].Data = change(secs[i].Data)
			}
		}
		return secs
	}
}

// TestGSIR3FramedCountsBounded: the counts inside the framed streams size
// allocations, so each must be refused unless the bytes behind it exist.
// IMGS's per-image shape count set to 0xFFFFFFF0 used to be a 137 GB
// make() — process death, through LoadPartial and /admin/reload.
func TestGSIR3FramedCountsBounded(t *testing.T) {
	data := snapshotBytes(t, buildEngine(t))
	huge := func(off int) func([]byte) []byte {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[off:], 0xFFFFFFF0)
			return b
		}
	}
	// IMGS: u32 images | first image { u32 id | u32 shapes ← }.
	imgs := rewriteV3(t, data, editV3Section("IMGS", huge(8)))
	if _, err := loadComplete(imgs); err == nil {
		t.Error("an IMGS shape count beyond SHPM read as complete")
	}
	if _, _, err := LoadPartial(bytes.NewReader(imgs)); err == nil {
		t.Error("LoadPartial accepted an IMGS shape count beyond SHPM (IMGS is raw: nothing to rebuild from)")
	}
	// GRPH: u32 images | first image { u32 id | u32 shapes=2 | 2 × u32 | u32 edges ← }.
	// It is derived, so the salvage path rebuilds it and says so.
	grph := rewriteV3(t, data, editV3Section("GRPH", huge(4+4+4+2*4)))
	if _, err := loadComplete(grph); err == nil {
		t.Error("a GRPH edge count beyond the section read as complete")
	}
	if _, rec, err := LoadPartial(bytes.NewReader(grph)); err != nil || rec.Complete() {
		t.Errorf("LoadPartial over a bad GRPH edge count: recovery %+v, err %v; want a rebuild that reports the loss", rec, err)
	}
}

// TestGSIR3GraphsFollowImages: the image graphs are the images' order —
// Save walks them, and a shard directory's load checks a shard against its
// manifest by them — so a checksum-valid GRPH that files a graph under
// another image than its shapes', or an image's shapes out of id order, is
// damage: the decoder rebuilds from the raw sections, reports the loss, and
// the engine re-saves to the original's bytes.
func TestGSIR3GraphsFollowImages(t *testing.T) {
	orig := buildEngine(t)
	data := snapshotBytes(t, orig)
	// GRPH: u32 images | first image { u32 id | u32 shapes=2 | 2 × u32 | ... }.
	for _, c := range []struct {
		name   string
		change func(b []byte) []byte
	}{
		{"another image", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 99)
			return b
		}},
		{"shapes out of order", func(b []byte) []byte {
			s0, s1 := binary.LittleEndian.Uint32(b[12:]), binary.LittleEndian.Uint32(b[16:])
			binary.LittleEndian.PutUint32(b[12:], s1)
			binary.LittleEndian.PutUint32(b[16:], s0)
			return b
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, rec, err := LoadPartial(bytes.NewReader(rewriteV3(t, data, editV3Section("GRPH", c.change))))
			if err != nil {
				t.Fatal(err)
			}
			if rec.Complete() || rec.AuxDropped == 0 {
				t.Fatalf("report %+v, want the derived sections' loss", rec)
			}
			checkEngineEquivalence(t, orig, eng)
			if !bytes.Equal(snapshotBytes(t, eng), data) {
				t.Fatal("the rebuilt engine does not re-save to the original's bytes")
			}
		})
	}
}

// TestGSIR3SectionTable drives the loader's one shape check from the
// table itself: the writer emits exactly the table's rows, every row the
// OPTS counts size is refused by name when it is an element short, an
// element long or absent — the optional row, ECEL, absent too, since no
// EVTX vouches for the vertices it would be derived for — and a section the
// table does not know — what every snapshot written while GBND, the kd-tree
// or the copies' vertices were rows carries — is ignored, short, long or
// absent, except the golden's EVTX: in a file without ECEL it holds the
// vertex count the cells are derived for, and short, long or absent it is
// refused naming ECEL.
func TestGSIR3SectionTable(t *testing.T) {
	orig := buildEngine(t)
	data := snapshotBytes(t, orig)
	rows, err := sectable.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(v3Table) {
		t.Fatalf("writer emitted %d sections, the table has %d rows", len(rows), len(v3Table))
	}
	for i, row := range v3Table {
		if rows[i].Tag != row.tag {
			t.Fatalf("section %d is %s, the table says %s", i, rows[i].Tag, row.tag)
		}
	}

	for _, row := range v3Table {
		if row.count == nil {
			continue
		}
		edits := []struct {
			name string
			edit func([]sectable.Payload) []sectable.Payload
		}{
			{"short", editV3Section(row.tag, func(b []byte) []byte { return b[:len(b)-row.elem] })},
			{"long", editV3Section(row.tag, func(b []byte) []byte { return append(b, make([]byte, row.elem)...) })},
			{"absent", func(secs []sectable.Payload) []sectable.Payload {
				return slices.DeleteFunc(secs, func(s sectable.Payload) bool { return s.Tag == row.tag })
			}},
		}
		for _, e := range edits {
			t.Run(row.tag+"/"+e.name, func(t *testing.T) {
				_, err := loadComplete(rewriteV3(t, data, e.edit))
				if err == nil || !strings.Contains(err.Error(), row.tag) {
					t.Fatalf("read = %v, want incomplete, naming %s", err, row.tag)
				}
			})
		}
	}

	// The golden's sections the table no longer names are ignored whatever
	// their length, and a file without them is what the writer emits now.
	golden := gsir3KDTreeGolden(t)
	for _, tag := range v3LegacyTags {
		for _, e := range []struct {
			name string
			edit func([]sectable.Payload) []sectable.Payload
		}{
			{"short", editV3Section(tag, func(b []byte) []byte { return b[:len(b)-4] })},
			{"long", editV3Section(tag, func(b []byte) []byte { return append(b, make([]byte, 4)...) })},
			{"absent", func(secs []sectable.Payload) []sectable.Payload {
				return slices.DeleteFunc(secs, func(s sectable.Payload) bool { return s.Tag == tag })
			}},
		} {
			t.Run(tag+"/"+e.name, func(t *testing.T) {
				eng, err := loadComplete(rewriteV3(t, golden, e.edit))
				if tag == "EVTX" {
					if err == nil || !strings.Contains(err.Error(), "ECEL") {
						t.Fatalf("read with %s EVTX and no ECEL = %v, want incomplete, naming ECEL", e.name, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("read with %s %s: %v", e.name, tag, err)
				}
				checkEngineEquivalence(t, orig, eng)
			})
		}
	}

	t.Run("unknown section ignored", func(t *testing.T) {
		old := rewriteV3(t, data, func(secs []sectable.Payload) []sectable.Payload {
			at := slices.IndexFunc(secs, func(s sectable.Payload) bool { return s.Tag == "ENTM" }) + 1
			return slices.Insert(secs, at, sectable.Payload{Tag: "GBND", Data: make([]byte, 56*orig.NumEntries())})
		})
		heap, err := loadComplete(old)
		if err != nil {
			t.Fatalf("read with a GBND section: %v", err)
		}
		checkEngineEquivalence(t, orig, heap)
		path := filepath.Join(t.TempDir(), "old.gsir3")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := openComplete(path, LoadModeMmap)
		if err != nil {
			t.Fatalf("mmap-mode open with a GBND section: %v", err)
		}
		defer mapped.Close()
		if got := mapped.StorageStats().LoadMode; got != servedLoadMode(LoadModeMmap) {
			t.Fatalf("served from %s, want %s", got, servedLoadMode(LoadModeMmap))
		}
		checkEngineEquivalence(t, orig, mapped)
	})
}

// TestGSIR3RefusesInconsistentCopies feeds the loaders checksum-valid files
// whose copies a search could not read: a cell id past the distance field's
// last, a diameter vertex past its shape's, and an odd copy whose diameter
// pair is its partner's, not swapped. Neither the stream decoder nor the
// mmap-mode file open reads one as complete (refusedByBothLoads);
// LoadPartial salvages each by the raw rebuild, reports the loss, and
// answers as the original. A file whose copies declare more vertices than
// an int32 offset counts is not complete either.
func TestGSIR3RefusesInconsistentCopies(t *testing.T) {
	orig := buildEngine(t)
	data := snapshotBytes(t, orig)
	q := lshape(0, 0, 3).Transform(Similarity(1.4, 0.5, Pt(40, 40)))
	want := mustSearch(t, orig, SearchRequest{Query: q, K: 3})
	for _, c := range []struct {
		name, tag, want string
		change          func(b []byte) []byte
	}{
		{"cell past the field's", "ECEL", "past the field", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[len(b)/4&^1:], 0xFFFF)
			return b
		}},
		// ENTM rows are { shape | copy | DiamI | DiamJ }, i32 each.
		{"diameter vertex past the shape's", "ENTM", "outside its", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 1<<20)
			return b
		}},
		{"odd copy's pair not swapped", "ENTM", "not the half turn", func(b []byte) []byte {
			copy(b[16+8:16+16], b[8:16])
			return b
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := rewriteV3(t, data, editV3Section(c.tag, c.change))
			refusedByBothLoads(t, bad, c.want)
			eng, rec, err := LoadPartial(bytes.NewReader(bad))
			if err != nil {
				t.Fatalf("LoadPartial: %v", err)
			}
			if rec.Complete() || rec.AuxDropped == 0 {
				t.Fatalf("salvage reports %+v, want the derived sections' loss", rec)
			}
			got := mustSearch(t, eng, SearchRequest{Query: q, K: 3})
			if got.Stats != want.Stats {
				t.Fatalf("salvaged engine answers differently: %+v vs %+v", got.Stats, want.Stats)
			}
			assertMatchesEqual(t, "salvaged", want.Matches, got.Matches)
		})
	}

	// One shape of 2¹⁷ raw vertices and 2¹⁵ copies — legal diameters,
	// pairs swapped — declare 2³² copy vertices, which an int32 offset
	// wraps to 0: with an empty cell row and OPTS's vertex count 0 the
	// file is a few MB and passes every count check. Refused, not served.
	one := New(DefaultOptions())
	if err := one.AddImage(0, []Shape{lshape(0, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := one.Freeze(); err != nil {
		t.Fatal(err)
	}
	const nv, copies = 1 << 17, 1 << 15
	rawv := make([]Point, nv)
	rawv[1] = Pt(1, 0)
	for i := 2; i < nv; i++ {
		rawv[i] = Pt(0.5, 0.1)
	}
	var entm []core.EntryMeta
	for c := int32(0); c < copies; c++ {
		entm = append(entm, core.EntryMeta{Copy: c, DiamI: c % 2, DiamJ: 1 - c%2})
	}
	wrap := rewriteV3(t, snapshotBytes(t, one), func(secs []sectable.Payload) []sectable.Payload {
		secs = editV3Section("RAWV", func([]byte) []byte { return put(nil, rawv) })(secs)
		secs = editV3Section("SHPM", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], nv)
			return b
		})(secs)
		secs = editV3Section("ENTM", func([]byte) []byte { return put(nil, entm) })(secs)
		secs = editV3Section("ECEL", func([]byte) []byte { return nil })(secs)
		// OPTS words: entries at 44, copy vertices at 48, raw vertices at 52.
		return editV3Section("OPTS", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[44:], copies)
			binary.LittleEndian.PutUint32(b[48:], 0)
			binary.LittleEndian.PutUint32(b[52:], nv)
			return b
		})(secs)
	})
	t.Run("copies of 2³² vertices", func(t *testing.T) { refusedByBothLoads(t, wrap, "more than") })
}

// TestGSIR3CellRowOfAnotherGridIsDerived pins that a cell row is adopted
// only under the grid it was computed in: a file whose OPTS stamps ECEL
// with another field layout than core.FieldLayout, or with none — here
// with every cell zeroed, ids the range check passes but the floors would
// misread — loads heap and mapped with every copy's cells derived again,
// and answers as the original; the same zeroed row under the current
// stamp is adopted as it stands.
func TestGSIR3CellRowOfAnotherGridIsDerived(t *testing.T) {
	orig := buildEngine(t)
	parts := orig.db.Base().FrozenParts()
	data := snapshotBytes(t, orig)
	for _, c := range []struct {
		name    string
		stamp   uint32
		derived bool
	}{
		{"another grid", core.FieldLayout ^ 0x100, true},
		{"no grid recorded", 0, true},
		{"this grid", core.FieldLayout, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			stale := rewriteV3(t, data, func(secs []sectable.Payload) []sectable.Payload {
				secs = editV3Section("ECEL", func(b []byte) []byte { return make([]byte, len(b)) })(secs)
				return editV3Section("OPTS", func(b []byte) []byte {
					binary.LittleEndian.PutUint32(b[60:], c.stamp)
					return b
				})(secs)
			})
			want := make([]uint16, len(parts.Cells))
			if c.derived {
				want = parts.Cells
			}
			path := filepath.Join(t.TempDir(), "stale.gsir3")
			if err := os.WriteFile(path, stale, 0o644); err != nil {
				t.Fatal(err)
			}
			opens := map[string]func() (*Engine, error){
				"stream":    func() (*Engine, error) { return loadComplete(stale) },
				"mmap mode": func() (*Engine, error) { return openComplete(path, LoadModeMmap) },
			}
			for name, open := range opens {
				eng, err := open()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := eng.db.Base().FrozenParts()
				if !slices.Equal(got.Cells, want) {
					t.Fatalf("%s holds cells %v…, want %v…", name, got.Cells[:8], want[:8])
				}
				if c.derived {
					checkEngineEquivalence(t, orig, eng)
				}
				eng.Close()
			}
		})
	}
}

// refusedByBothLoads asserts that neither the stream decoder nor the file
// open under LoadModeMmap (mapped where the platform can map and cast)
// reads the GSIR3 image bad as complete, each with an error or first
// damage containing want.
func refusedByBothLoads(t *testing.T, bad []byte, want string) {
	t.Helper()
	if _, err := loadComplete(bad); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("stream read = %v, want incomplete, with %q", err, want)
	}
	path := filepath.Join(t.TempDir(), "bad.gsir3")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if eng, err := openComplete(path, LoadModeMmap); err == nil || !strings.Contains(err.Error(), want) {
		if eng != nil {
			eng.Close()
		}
		t.Fatalf("mmap-mode open = %v, want incomplete, with %q", err, want)
	}
}
