package geosir

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/mmap"
)

// gsir3KDTreeGolden is a GSIR3 snapshot of buildEngine's base written
// while the format still carried the climb's range index and a segment
// grid per entry: besides every section of v3Table it holds v3LegacyTags,
// which the loader now ignores.
func gsir3KDTreeGolden(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(gsir3KDTreeGoldenPath)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

const gsir3KDTreeGoldenPath = "testdata/gsir3/kdtree.gsir3"

// v3LegacyTags are the sections the golden holds and v3Table no longer
// names: the per-entry segment grids, the vertex → entry map and the
// kd-tree.
var v3LegacyTags = []string{"GRDH", "GSEG", "GCEL", "GIDS", "VENT", "KDTP", "KDTI", "KDTB"}

func saveV3(t *testing.T, eng *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.SaveAs(&buf, FormatGSIR3); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

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
	data := saveV3(t, orig)
	loaded, err := Load(bytes.NewReader(data))
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
	first := saveV3(t, orig)
	loaded, err := Load(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	second := saveV3(t, loaded)
	if !bytes.Equal(first, second) {
		t.Fatalf("GSIR3 encoding is not canonical: %d vs %d bytes", len(first), len(second))
	}
}

func TestGSIR3RequiresFrozen(t *testing.T) {
	eng := New(DefaultOptions())
	if err := eng.AddImage(0, []Shape{square(0, 0, 5)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveAs(&buf, FormatGSIR3); err == nil {
		t.Fatal("GSIR3 save of an unfrozen engine should fail")
	}
}

func TestGSIR3Peek(t *testing.T) {
	orig := buildEngine(t)
	data := saveV3(t, orig)
	info, err := Peek(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != FormatGSIR3 || info.FormatName != "GSIR3" {
		t.Fatalf("format = %d %q", info.Format, info.FormatName)
	}
	if info.Images != orig.NumImages() || info.Shapes != orig.NumShapes() {
		t.Fatalf("peek counts %d/%d, want %d/%d", info.Images, info.Shapes, orig.NumImages(), orig.NumShapes())
	}
	// A fresh file holds the table's rows and no section of an older
	// writer's: no segment grid per entry.
	if info.Sections != len(v3Table) {
		t.Fatalf("peek reports %d sections, the table has %d rows", info.Sections, len(v3Table))
	}
	rows, err := parseV3Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if slices.Contains(v3LegacyTags, r.tag) {
			t.Fatalf("a fresh file holds section %s", r.tag)
		}
	}
	if info.Options != orig.Options() {
		t.Fatalf("peek options %+v, want %+v", info.Options, orig.Options())
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "snap.gsir3")
	if err := orig.SaveFileAs(path, FormatGSIR3); err != nil {
		t.Fatal(err)
	}
	finfo, err := PeekFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if finfo.Size != int64(len(data)) {
		t.Fatalf("peek size %d, want %d", finfo.Size, len(data))
	}
}

func TestGSIR3MmapEquivalence(t *testing.T) {
	if !mmap.Supported() || !mmap.CanCast() {
		t.Skip("mmap serving unsupported on this platform/build")
	}
	orig := buildEngine(t)
	path := filepath.Join(t.TempDir(), "snap.gsir3")
	if err := orig.SaveFileAs(path, FormatGSIR3); err != nil {
		t.Fatal(err)
	}
	m, err := LoadFileMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if st := m.StorageStats(); st.LoadMode != "mmap" || st.MappedBytes == 0 {
		t.Fatalf("storage stats = %+v", st)
	}
	if st := orig.StorageStats(); st.LoadMode != "heap" || st.MappedBytes != 0 {
		t.Fatalf("heap engine storage stats = %+v", st)
	}
	checkEngineEquivalence(t, orig, m)

	h, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkEngineEquivalence(t, h, m)
}

func TestGSIR3MmapClose(t *testing.T) {
	if !mmap.Supported() || !mmap.CanCast() {
		t.Skip("mmap serving unsupported on this platform/build")
	}
	orig := buildEngine(t)
	path := filepath.Join(t.TempDir(), "snap.gsir3")
	if err := orig.SaveFileAs(path, FormatGSIR3); err != nil {
		t.Fatal(err)
	}
	m, err := LoadFileMmap(path)
	if err != nil {
		t.Fatal(err)
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
	orig := buildEngine(t)
	var v2 bytes.Buffer
	if err := orig.SaveAs(&v2, FormatGSIR2); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(&v2)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := Load(bytes.NewReader(saveV3(t, orig)))
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
// the per-entry grid, kd-tree and vertex → entry sections: heap-decoded
// and mapped, it answers exactly as a fresh build of the same base —
// matches and stats byte for byte — holds its copies in half-turn pairs
// (checkMirroredPairs), and re-saving it drops exactly those
// eight sections and leaves every other payload — OPTS's 64 bytes with
// the backend word 2 among them — byte-identical.
func TestGSIR3KDTreeGolden(t *testing.T) {
	fresh := buildEngine(t)
	data := gsir3KDTreeGolden(t)
	heap, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load(golden): %v", err)
	}
	checkEngineEquivalence(t, fresh, heap)
	checkMirroredPairs(t, heap)
	if mmap.Supported() && mmap.CanCast() {
		mapped, err := LoadFileMmap(gsir3KDTreeGoldenPath)
		if err != nil {
			t.Fatalf("LoadFileMmap(golden): %v", err)
		}
		defer mapped.Close()
		checkEngineEquivalence(t, fresh, mapped)
		checkMirroredPairs(t, mapped)
	}

	resaved := saveV3(t, heap)
	if !bytes.Equal(resaved, saveV3(t, fresh)) {
		t.Fatal("the re-saved golden is not what a fresh build saves")
	}
	payloads := func(data []byte) ([]string, map[string][]byte) {
		rows, err := parseV3Layout(data)
		if err != nil {
			t.Fatal(err)
		}
		tags, m := make([]string, len(rows)), make(map[string][]byte, len(rows))
		for i, r := range rows {
			tags[i], m[r.tag] = r.tag, data[r.off:r.off+r.len]
		}
		return tags, m
	}
	oldTags, old := payloads(data)
	newTags, cur := payloads(resaved)
	kept := slices.DeleteFunc(slices.Clone(oldTags), func(tag string) bool { return slices.Contains(v3LegacyTags, tag) })
	if len(kept) != len(oldTags)-len(v3LegacyTags) || !slices.Equal(kept, newTags) {
		t.Fatalf("re-save holds %v; the golden %v less %v", newTags, oldTags, v3LegacyTags)
	}
	for _, tag := range newTags {
		if !bytes.Equal(cur[tag], old[tag]) {
			t.Errorf("section %s changed on re-save", tag)
		}
	}
	if opts := cur["OPTS"]; len(opts) != 64 || binary.LittleEndian.Uint32(opts[56:]) != v3KDTree || v3KDTree != 2 {
		t.Errorf("OPTS is %d bytes with backend word %d, want 64 and 2", len(opts), binary.LittleEndian.Uint32(opts[56:]))
	}
}

// TestGSIR3ByteFlipSweep flips one byte in every section payload in
// turn — every section a fresh file holds, and the sections only the
// golden file of an older writer holds (v3LegacyTags). Damage to a raw
// section must refuse recovery; damage to any other section must salvage
// an engine that answers identically to the original (the slow rebuild is
// deterministic). A strict Load must fail on every flip.
func TestGSIR3ByteFlipSweep(t *testing.T) {
	orig := buildEngine(t)
	q := lshape(0, 0, 3).Transform(Similarity(1.4, 0.5, Pt(40, 40)))
	want := mustSearch(t, orig, SearchRequest{Query: q, K: 3})
	type target struct {
		data []byte
		sec  v3Section
	}
	var targets []target
	for _, f := range []struct {
		data []byte
		only []string // nil: every section
	}{{saveV3(t, orig), nil}, {gsir3KDTreeGolden(t), v3LegacyTags}} {
		secs, err := parseV3Layout(f.data)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range secs {
			if s.len > 0 && (f.only == nil || slices.Contains(f.only, s.tag)) {
				targets = append(targets, target{f.data, s})
			}
		}
	}
	for _, tg := range targets {
		data, s, name := tg.data, tg.sec, tg.sec.tag
		t.Run(name, func(t *testing.T) {
			mut := bytes.Clone(data)
			mut[s.off+s.len/2] ^= 0x40
			if _, err := Load(bytes.NewReader(mut)); err == nil {
				t.Fatalf("strict load survived a flip in %s", name)
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

// TestGSIR3TruncationSweep cuts the file at a range of lengths; every
// prefix must either refuse cleanly or salvage — never panic, never
// load silently wrong data.
func TestGSIR3TruncationSweep(t *testing.T) {
	orig := buildEngine(t)
	data := saveV3(t, orig)
	cuts := []int{0, 3, magicLen, v3HeaderLen, v3HeaderLen + 10,
		len(data) / 4, len(data) / 2, len(data) - 1}
	for _, n := range cuts {
		if n > len(data) {
			continue
		}
		if _, err := Load(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("strict load survived truncation to %d bytes", n)
		}
		eng, _, err := LoadPartial(bytes.NewReader(data[:n]))
		if err == nil && eng == nil {
			t.Fatalf("truncation to %d: nil engine without error", n)
		}
	}
}

func TestGSIR3SaveFileAsAtomicity(t *testing.T) {
	orig := buildEngine(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := orig.SaveFileAs(path, FormatGSIR3); err != nil {
		t.Fatal(err)
	}
	// No temp droppings.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
	// Explicit GSIR2 via SaveFileAs still round-trips.
	if err := orig.SaveFileAs(path, FormatGSIR2); err != nil {
		t.Fatal(err)
	}
	info, err := PeekFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.FormatName != "GSIR2" {
		t.Fatalf("format = %q", info.FormatName)
	}
}

// rewriteV3 takes a GSIR3 image apart into its sections, lets edit change
// them, and writes the result back out with offsets, section CRCs and the
// table CRC re-summed: a checksum-consistent file that says something the
// writer never would.
func rewriteV3(t *testing.T, data []byte, edit func([]v3sec) []v3sec) []byte {
	t.Helper()
	rows, err := parseV3Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]v3sec, len(rows))
	for i, s := range rows {
		secs[i] = v3sec{tag: s.tag, payload: bytes.Clone(data[s.off : s.off+s.len])}
	}
	var buf bytes.Buffer
	if err := writeV3(&buf, edit(secs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// editV3Section is the rewriteV3 edit that changes one section's payload.
func editV3Section(tag string, change func([]byte) []byte) func([]v3sec) []v3sec {
	return func(secs []v3sec) []v3sec {
		for i := range secs {
			if secs[i].tag == tag {
				secs[i].payload = change(secs[i].payload)
			}
		}
		return secs
	}
}

// TestGSIR3FramedCountsBounded: the counts inside the framed streams size
// allocations, so each must be refused unless the bytes behind it exist.
// IMGS's per-image shape count set to 0xFFFFFFF0 used to be a 137 GB
// make() — process death, through Load, LoadPartial and /admin/reload.
func TestGSIR3FramedCountsBounded(t *testing.T) {
	data := saveV3(t, buildEngine(t))
	huge := func(off int) func([]byte) []byte {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[off:], 0xFFFFFFF0)
			return b
		}
	}
	// IMGS: u32 images | first image { u32 id | u32 shapes ← }.
	imgs := rewriteV3(t, data, editV3Section("IMGS", huge(8)))
	if _, err := Load(bytes.NewReader(imgs)); err == nil {
		t.Error("Load accepted an IMGS shape count beyond SHPM")
	}
	if _, _, err := LoadPartial(bytes.NewReader(imgs)); err == nil {
		t.Error("LoadPartial accepted an IMGS shape count beyond SHPM (IMGS is raw: nothing to rebuild from)")
	}
	// GRPH: u32 images | first image { u32 id | u32 shapes=2 | 2 × u32 | u32 edges ← }.
	// It is derived, so the salvage path rebuilds it and says so.
	grph := rewriteV3(t, data, editV3Section("GRPH", huge(4+4+4+2*4)))
	if _, err := Load(bytes.NewReader(grph)); err == nil {
		t.Error("Load accepted a GRPH edge count beyond the section")
	}
	if _, rec, err := LoadPartial(bytes.NewReader(grph)); err != nil || rec.Complete() {
		t.Errorf("LoadPartial over a bad GRPH edge count: recovery %+v, err %v; want a rebuild that reports the loss", rec, err)
	}
}

// TestGSIR3SectionTable drives the loader's one shape check from the
// table itself: the writer emits exactly the table's rows, every row the
// OPTS counts size is refused by name when it is an element short, an
// element long or absent, and a section the table does not know — what
// every snapshot written while GBND or the kd-tree was a row carries — is
// ignored, short, long or absent.
func TestGSIR3SectionTable(t *testing.T) {
	orig := buildEngine(t)
	data := saveV3(t, orig)
	rows, err := parseV3Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(v3Table) {
		t.Fatalf("writer emitted %d sections, the table has %d rows", len(rows), len(v3Table))
	}
	for i, row := range v3Table {
		if rows[i].tag != row.tag {
			t.Fatalf("section %d is %s, the table says %s", i, rows[i].tag, row.tag)
		}
	}

	for _, row := range v3Table {
		if row.count == nil {
			continue
		}
		edits := []struct {
			name string
			edit func([]v3sec) []v3sec
		}{
			{"short", editV3Section(row.tag, func(b []byte) []byte { return b[:len(b)-row.elem] })},
			{"long", editV3Section(row.tag, func(b []byte) []byte { return append(b, make([]byte, row.elem)...) })},
			{"absent", func(secs []v3sec) []v3sec {
				return slices.DeleteFunc(secs, func(s v3sec) bool { return s.tag == row.tag })
			}},
		}
		for _, e := range edits {
			t.Run(row.tag+"/"+e.name, func(t *testing.T) {
				_, err := Load(bytes.NewReader(rewriteV3(t, data, e.edit)))
				if err == nil || !strings.Contains(err.Error(), row.tag) {
					t.Fatalf("Load = %v, want a refusal naming %s", err, row.tag)
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
			edit func([]v3sec) []v3sec
		}{
			{"short", editV3Section(tag, func(b []byte) []byte { return b[:len(b)-4] })},
			{"long", editV3Section(tag, func(b []byte) []byte { return append(b, make([]byte, 4)...) })},
			{"absent", func(secs []v3sec) []v3sec {
				return slices.DeleteFunc(secs, func(s v3sec) bool { return s.tag == tag })
			}},
		} {
			t.Run(tag+"/"+e.name, func(t *testing.T) {
				eng, err := Load(bytes.NewReader(rewriteV3(t, golden, e.edit)))
				if err != nil {
					t.Fatalf("Load with %s %s: %v", e.name, tag, err)
				}
				checkEngineEquivalence(t, orig, eng)
			})
		}
	}

	t.Run("unknown section ignored", func(t *testing.T) {
		old := rewriteV3(t, data, func(secs []v3sec) []v3sec {
			at := slices.IndexFunc(secs, func(s v3sec) bool { return s.tag == "EVTX" }) + 1
			return slices.Insert(secs, at, v3sec{tag: "GBND", payload: make([]byte, 56*orig.NumEntries())})
		})
		heap, err := Load(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("Load with a GBND section: %v", err)
		}
		checkEngineEquivalence(t, orig, heap)
		if !mmap.Supported() || !mmap.CanCast() {
			return
		}
		path := filepath.Join(t.TempDir(), "old.gsir3")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := LoadFileMmap(path)
		if err != nil {
			t.Fatalf("LoadFileMmap with a GBND section: %v", err)
		}
		defer mapped.Close()
		checkEngineEquivalence(t, orig, mapped)
	})
}
