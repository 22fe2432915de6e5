package geosir

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/atomicfile"
	"repro/internal/core"
)

// A sharded snapshot is a directory:
//
//	<dir>/MANIFEST.json      image routing manifest (written last)
//	<dir>/shard-000.gsir2    shard 0, a standard GSIR snapshot
//	<dir>/shard-001.gsir2    shard 1, ...
//	<dir>/DELTA.wal          live-ingestion write-ahead log (optional)
//
// Each shard file is an ordinary atomic GSIR3 snapshot (SaveFile's
// temp+fsync+rename path; a reload assembles — or mmaps — instead of
// rebuilding, an empty shard is a file of zero counts, and the magic
// negotiates the format on load regardless of the .gsir2 suffix, which
// earlier writers chose and existing directories keep), so shard damage
// is contained: a corrupted or missing shard file, or one saved under
// other options than its siblings, degrades that shard — partial results
// with Recovery accounting — and never poisons its siblings. The manifest
// records the AddImage call order as (image id, shape count, shard,
// deleted) tuples; replaying it fixes every global shape id, so ids
// survive reload even when recovery drops images, and a re-save of the
// loaded engine keeps them stable.
//
// Version 2 (live ingestion, DESIGN.md §4.12) adds three things to the
// v1 schema, all backward compatible (v1 manifests still load):
//
//   - per-image "shard" (physical home, -1 = reservation only) and
//     "deleted" (frozen copy tombstoned after freeze) fields, so
//     compaction can place an image anywhere — not just at its hash
//     shard — and deletes need no shard rewrite;
//   - "generation", bumped by every compaction, for observability;
//   - "walSeq", the WAL fold watermark: every DELTA.wal operation with
//     sequence ≤ walSeq is already reflected in the shard files and
//     manifest and must be skipped on replay. The manifest rename is
//     compaction's commit point; walSeq is what makes the replay
//     idempotent if the process dies between that rename and the WAL
//     rewrite that follows it.

// manifestName is the routing manifest's file name inside a sharded
// snapshot directory.
const manifestName = "MANIFEST.json"

// walName is the live-ingestion write-ahead log's file name.
const walName = "DELTA.wal"

// shardManifestVersion is the current manifest schema version.
const shardManifestVersion = 2

type shardManifest struct {
	Version    int                  `json:"version"`
	Shards     int                  `json:"shards"`
	Generation uint64               `json:"generation,omitempty"`
	WALSeq     uint64               `json:"walSeq,omitempty"`
	Images     []shardManifestImage `json:"images"`
}

type shardManifestImage struct {
	ID     int `json:"id"`
	Shapes int `json:"shapes"`
	// Shard is the image's physical home. nil (absent, v1) means the
	// hash routing core.ShardFor applies; -1 means the image only
	// reserves global ids and no shard holds it.
	Shard   *int `json:"shard,omitempty"`
	Deleted bool `json:"deleted,omitempty"`
}

// homeShard resolves the image's physical shard under the manifest's
// routing rules (explicit v2 placement, hash fallback for v1).
func (im *shardManifestImage) homeShard(man *shardManifest) int {
	if im.Shard != nil {
		return *im.Shard
	}
	return core.ShardFor(im.ID, man.Shards)
}

// shardFileName names shard i's snapshot file.
func shardFileName(i int) string { return fmt.Sprintf("shard-%03d.gsir2", i) }

// SaveDir writes the sharded snapshot into dir (created if needed).
// Every shard file is written atomically, and the manifest is written
// atomically last — a crash mid-save leaves either the complete old
// snapshot or a mix of old manifest + new shard files, both of which
// load (the manifest is authoritative for routing, and shard files are
// self-checking).
//
// With live ingestion enabled, SaveDir persists the frozen part of the
// current view: the shards (including every compacted one) and the
// manifest's placement/tombstone log. Images still in the mutable delta
// are deliberately not saved here — the write-ahead log is their
// durable form, and the saved manifest's walSeq of 0 makes a subsequent
// EnableIngest replay them (mutations are applied idempotently).
func (se *ShardedEngine) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("geosir: creating snapshot dir: %w", err)
	}
	v := se.snapshot()
	for i, sh := range v.shards {
		if err := sh.SaveFile(filepath.Join(dir, shardFileName(i))); err != nil {
			return fmt.Errorf("geosir: saving shard %d: %w", i, err)
		}
	}
	man := manifestFromView(v, 0)
	return writeManifest(filepath.Join(dir, manifestName), man, nil)
}

// manifestFromView builds the v2 manifest describing a view's frozen
// part, its image log's manifest prefix. walSeq is the WAL fold watermark
// to record (0 = nothing folded).
func manifestFromView(v *shardView, walSeq uint64) *shardManifest {
	images := v.log.manifest(len(v.shards))
	man := &shardManifest{
		Version:    shardManifestVersion,
		Shards:     len(v.shards),
		Generation: v.gen,
		WALSeq:     walSeq,
		Images:     make([]shardManifestImage, len(images)),
	}
	for i, im := range images {
		s := im.Shard
		man.Images[i] = shardManifestImage{ID: im.ID, Shapes: im.Shapes, Shard: &s, Deleted: im.Deleted}
	}
	return man
}

// writeManifest writes the manifest atomically (atomicfile.Write). A
// non-nil wrap intercepts the payload writes (fault injection in tests).
func writeManifest(path string, man *shardManifest, wrap func(io.Writer) io.Writer) error {
	return atomicfile.Write(path, wrap, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(man); err != nil {
			return fmt.Errorf("geosir: encoding manifest: %w", err)
		}
		return nil
	})
}

// ShardFileRecovery reports how one shard file fared in LoadAnyMode.
type ShardFileRecovery struct {
	// Path is the shard file's path.
	Path string
	// Err is the whole-file failure (unreadable, bad header, or
	// inconsistent with the manifest), nil when the shard loaded.
	Err error
	// Recovery is the per-file salvage report (nil when Err is set).
	Recovery *Recovery
	// Dropped reports that the entire shard was discarded: its images
	// contribute nothing, but their global ids stay reserved.
	Dropped bool
}

// ShardRecovery reports what LoadAnyMode salvaged across a snapshot.
type ShardRecovery struct {
	// Shards holds one entry per shard file, in shard order: one for a
	// snapshot file.
	Shards []ShardFileRecovery
	// ImagesExpected is the image count the manifest declares.
	ImagesExpected int
	// ImagesLoaded is the number of images recovered across all shards
	// (tombstoned images whose bytes loaded count as recovered).
	ImagesLoaded int
}

// Complete reports whether every shard was recovered in full — the
// engine is then identical to a freshly built one.
func (r *ShardRecovery) Complete() bool {
	if r == nil {
		return false
	}
	for _, s := range r.Shards {
		if s.Err != nil || s.Dropped || !s.Recovery.Complete() {
			return false
		}
	}
	return true
}

// LoadMode selects how snapshot files are opened.
type LoadMode int

const (
	// LoadModeHeap decodes snapshots fully onto the Go heap (works for
	// every format on every platform).
	LoadModeHeap LoadMode = iota
	// LoadModeMmap memory-maps GSIR3 snapshots and serves their array
	// sections in place — O(1) open, page-cache-backed residency. A
	// damaged or empty GSIR3 file loads onto the heap from the mapping;
	// files that are not GSIR3, and platforms/builds without mmap+cast
	// support, fall back to the heap path per file.
	LoadModeMmap
)

// String returns the mode's /statz and flag spelling.
func (m LoadMode) String() string {
	if m == LoadModeMmap {
		return "mmap"
	}
	return "heap"
}

// ParseLoadMode parses "heap" or "mmap".
func ParseLoadMode(s string) (LoadMode, error) {
	switch s {
	case "heap", "":
		return LoadModeHeap, nil
	case "mmap":
		return LoadModeMmap, nil
	}
	return LoadModeHeap, fmt.Errorf("geosir: unknown load mode %q (want heap or mmap)", s)
}

// loadShardFile opens one snapshot file under the requested mode. In
// mmap mode a GSIR3 file goes through the decoder once, over its mapping:
// clean, it is served in place; damaged, its salvage is the answer. A file
// that is not GSIR3, or a platform that cannot map, falls back to the
// salvaging heap loader, so mode is a performance choice, never an
// availability one.
func loadShardFile(path string, mode LoadMode) (*Engine, *Recovery, error) {
	if mode == LoadModeMmap {
		if eng, rec, err := mapGSIR3(path); !errors.Is(err, errNotMapped) {
			return eng, rec, err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return LoadPartial(f)
}

// loadShardedDir loads a sharded snapshot directory, each shard file
// opened under mode, salvaging whatever verifies. Damage is contained at
// two granularities: a corrupted image section costs that image (per-file
// Recovery), and an unreadable or manifest-inconsistent shard file costs
// that shard. Surviving shapes keep the global ids the manifest assigns.
// The manifest itself must be intact — without it no routing can be
// reconstructed. A DELTA.wal in the directory is not replayed here;
// EnableIngest owns it.
func loadShardedDir(dir string, mode LoadMode) (*ShardedEngine, *ShardRecovery, error) {
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, err
	}

	rec := &ShardRecovery{
		Shards:         make([]ShardFileRecovery, man.Shards),
		ImagesExpected: len(man.Images),
	}
	shards := make([]*Engine, man.Shards)
	loaded := make([]map[int]int, man.Shards) // per shard: image id → shape count actually loaded
	var opts *Options
	for i := range shards {
		path := filepath.Join(dir, shardFileName(i))
		rec.Shards[i].Path = path
		eng, frec, err := loadShardFile(path, mode)
		if err != nil {
			rec.Shards[i].Err = err
			rec.Shards[i].Dropped = true
			continue
		}
		rec.Shards[i].Recovery = frec
		groups, ok := consistentGroups(eng, man, i)
		switch {
		case !ok:
			rec.Shards[i].Err = fmt.Errorf("geosir: shard %d content disagrees with manifest; shard dropped", i)
		case opts != nil && eng.Options() != *opts:
			rec.Shards[i].Err = fmt.Errorf("geosir: shard %d was saved under options %+v, the shards before it under %+v; shard dropped",
				i, eng.Options(), *opts)
		default:
			shards[i], loaded[i] = eng, groups
			if opts == nil {
				o := eng.Options()
				opts = &o
			}
			continue
		}
		rec.Shards[i].Dropped = true
		eng.Close()
	}
	if opts == nil {
		// Every shard failed: with no options section readable anywhere
		// there is nothing to degrade to.
		return nil, nil, errors.New("geosir: sharded snapshot: no shard loadable")
	}
	for i := range shards {
		if shards[i] == nil {
			shards[i] = New(*opts)
			if err := shards[i].Freeze(); err != nil {
				return nil, nil, err
			}
		}
	}

	// Replay the manifest into the image log. An image whose shard did
	// not yield it is placed on shard -1, a pure reservation, so the log
	// never claims a physical copy that is gone.
	log := newImageLog(man.Shards)
	for i := range man.Images {
		im := &man.Images[i]
		s := im.homeShard(man)
		if s >= 0 {
			if n, ok := loaded[s][im.ID]; ok && n == im.Shapes {
				rec.ImagesLoaded++
			} else {
				s = -1
			}
		}
		log.place(im.ID, im.Shapes, s, im.Deleted)
	}
	return newShardedFromParts(*opts, shards, log, man.Generation), rec, nil
}

// readManifest reads and validates a routing manifest (v1 or v2).
func readManifest(path string) (*shardManifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("geosir: reading manifest: %w", err)
	}
	var man shardManifest
	if err := json.Unmarshal(buf, &man); err != nil {
		return nil, fmt.Errorf("geosir: parsing manifest: %w", err)
	}
	if man.Version < 1 || man.Version > shardManifestVersion {
		return nil, fmt.Errorf("geosir: unsupported manifest version %d", man.Version)
	}
	if man.Shards < 1 || man.Shards > maxCount {
		return nil, fmt.Errorf("geosir: manifest declares %d shards", man.Shards)
	}
	if len(man.Images) > maxCount {
		return nil, fmt.Errorf("geosir: manifest declares %d images", len(man.Images))
	}
	for _, im := range man.Images {
		if im.Shapes < 0 || im.Shapes > maxCount {
			return nil, fmt.Errorf("geosir: manifest image %d declares %d shapes", im.ID, im.Shapes)
		}
		if im.Shard != nil && (*im.Shard < -1 || *im.Shard >= man.Shards) {
			return nil, fmt.Errorf("geosir: manifest image %d placed on shard %d of %d", im.ID, *im.Shard, man.Shards)
		}
	}
	return &man, nil
}

// consistentGroups checks a loaded shard against the manifest: the
// shard's images (in its insertion order, recovered from shape id
// order) must be a subsequence of the manifest images placed on it,
// with matching shape counts. Tombstoned images count — their bytes are
// still physically in the shard file (deletion is a manifest-side
// fact). On success it returns the shard's image id → shape count
// table. A shard that disagrees — an image the manifest never placed
// there, out-of-order images, or a shape-count mismatch that would
// shift every later local id — cannot be given stable global ids and is
// dropped wholesale by the caller.
func consistentGroups(eng *Engine, man *shardManifest, shard int) (map[int]int, bool) {
	groups := engineImageGroups(eng)
	counts := make(map[int]int, len(groups))
	g := 0
	for i := range man.Images {
		im := &man.Images[i]
		if im.homeShard(man) != shard || im.Shapes == 0 {
			continue
		}
		if g < len(groups) && groups[g].ID == im.ID {
			if groups[g].Shapes != im.Shapes {
				return nil, false
			}
			counts[im.ID] = groups[g].Shapes
			g++
		}
		// else: the shard dropped this image during per-file recovery —
		// fine, its ids will be skipped.
	}
	if g != len(groups) {
		return nil, false // shard holds images the manifest doesn't place here
	}
	return counts, true
}

// engineImageGroups lists an engine's images in AddImage order as
// (image id, shape count) pairs: one query graph an image, as Save walks
// them.
func engineImageGroups(eng *Engine) []shardImage {
	graphs := eng.db.Graphs()
	out := make([]shardImage, len(graphs))
	for i, g := range graphs {
		out[i] = shardImage{ID: g.Image, Shapes: len(g.Shapes)}
	}
	return out
}

// LoadAnyMode opens a snapshot path of either kind as a ShardedEngine,
// each file under mode (see LoadMode): a sharded snapshot directory
// (detected by it being a directory), or a single GSIR file as a one-shard
// engine whose global shape ids are the file's own. The recovery report
// has one entry per shard file either way, so callers handle degradation
// uniformly; the entry's Recovery.Format names the file's format.
func LoadAnyMode(path string, mode LoadMode) (Searcher, *ShardRecovery, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	if st.IsDir() {
		eng, rec, err := loadShardedDir(path, mode)
		if err != nil {
			return nil, nil, err
		}
		return eng, rec, nil
	}
	eng, frec, err := loadShardFile(path, mode)
	if err != nil {
		return nil, nil, err
	}
	log := newImageLog(1)
	for _, im := range engineImageGroups(eng) {
		log.place(im.ID, im.Shapes, 0, false)
	}
	return newShardedFromParts(eng.Options(), []*Engine{eng}, log, 0), &ShardRecovery{
		Shards:         []ShardFileRecovery{{Path: path, Recovery: frec}},
		ImagesExpected: frec.ImagesExpected,
		ImagesLoaded:   frec.ImagesLoaded,
	}, nil
}
