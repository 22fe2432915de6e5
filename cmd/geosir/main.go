// Command geosir is the GeoSIR command-line interface: it loads an image
// base from a shape file (or generates a synthetic demo base), then
// answers similarity and topological queries.
//
// Shape file format — one shape per line:
//
//	<image-id> <closed|open> x1,y1 x2,y2 x3,y3 ...
//
// Lines starting with '#' are comments.
//
// Usage:
//
//	geosir -base shapes.txt -query "0,0 1,0 1,1 0,1" -k 5
//	geosir -demo 200 -query-shape 3            # query with a stored shape
//	geosir -demo 200 -shards 4 -query-shape 3  # same, over a sharded engine
//	geosir -base shapes.txt -topo "similar(q)" -bind "q=0,0 1,0 1,1 0,1"
//	geosir -base shapes.txt -stats
//	geosir -demo 500 -shards 4 -snapshot-out snapdir   # sharded snapshot directory
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/sectable"
	"repro/internal/synth"
)

func main() {
	var (
		basePath   = flag.String("base", "", "shape file to load")
		demo       = flag.Int("demo", 0, "generate a synthetic demo base with N images instead of loading")
		seed       = flag.Int64("seed", 1, "seed for -demo")
		queryStr   = flag.String("query", "", "query shape as \"x1,y1 x2,y2 ...\" (closed)")
		queryOpen  = flag.Bool("open", false, "treat -query as an open polyline")
		queryShape = flag.Int("query-shape", -1, "query with stored shape id (use with -demo)")
		k          = flag.Int("k", 3, "number of matches")
		topo       = flag.String("topo", "", "topological query, e.g. \"similar(q) AND NOT overlap(a,b,any)\"")
		binds      = flag.String("bind", "", "semicolon-separated shape bindings: \"q=x1,y1 x2,y2 ...;a=...\"")
		stats      = flag.Bool("stats", false, "print base statistics and exit")
		dump       = flag.String("dump", "", "write the loaded/demo base to a shape file and exit")
		snapOut    = flag.String("snapshot-out", "", "freeze the loaded/demo base and write a snapshot for geosird, then exit (with -shards > 1: a snapshot directory)")
		shards     = flag.Int("shards", 1, "partition the base across N shards")
		annMode    = flag.String("ann", "off", "ANN candidate tier: off, approx (sublinear: answers from the tier's candidates alone)")
	)
	flag.Parse()

	if *dump != "" {
		if err := runDump(*basePath, *demo, *seed, *dump); err != nil {
			fmt.Fprintln(os.Stderr, "geosir:", err)
			os.Exit(1)
		}
		return
	}
	if *snapOut != "" {
		if err := runSnapshot(*basePath, *demo, *seed, *shards, *snapOut); err != nil {
			fmt.Fprintln(os.Stderr, "geosir:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*basePath, *demo, *seed, *queryStr, *queryOpen, *queryShape, *k, *topo, *binds, *stats, *shards, *annMode); err != nil {
		fmt.Fprintln(os.Stderr, "geosir:", err)
		os.Exit(1)
	}
}

// imageAdder is the mutation surface shared by Engine and ShardedEngine;
// the base builders below are agnostic to which one they fill.
type imageAdder interface {
	AddImage(imageID int, shapes []geosir.Shape) error
}

// fillBase populates an engine from -demo or -base.
func fillBase(adder imageAdder, basePath string, demo int, seed int64) error {
	switch {
	case demo > 0:
		spec := synth.PaperSpec(float64(demo)/10000, seed)
		spec.Images = demo
		for _, img := range synth.GenerateBase(spec) {
			valid := img.Shapes[:0]
			for _, s := range img.Shapes {
				if s.Validate() == nil {
					valid = append(valid, s)
				}
			}
			if len(valid) == 0 {
				continue
			}
			if err := adder.AddImage(img.ID, valid); err != nil {
				return err
			}
		}
		return nil
	case basePath != "":
		return loadBase(adder, basePath)
	}
	return fmt.Errorf("need -base FILE or -demo N")
}

// shapeLog passes images on to an engine and keeps their shapes in
// AddImage order: global shape ids are that order, so shapes[N] is the
// shape the engine names N.
type shapeLog struct {
	imageAdder
	shapes []geosir.Shape
}

func (l *shapeLog) AddImage(imageID int, shapes []geosir.Shape) error {
	if err := l.imageAdder.AddImage(imageID, shapes); err != nil {
		return err
	}
	l.shapes = append(l.shapes, shapes...)
	return nil
}

// storedPoly returns the stored shape of global id id.
func storedPoly(shapes []geosir.Shape, id int) (geosir.Shape, error) {
	if id < 0 || id >= len(shapes) {
		return geosir.Shape{}, fmt.Errorf("shape id %d out of range [0,%d)", id, len(shapes))
	}
	return shapes[id], nil
}

// printStats prints each shard's hash table, then the GSIR3 section table
// a snapshot of eng holds — each section's tag, bytes, share of the file
// and bytes per image, summed over the shards — read off the saved files'
// own tables (sectable.Parse). An empty shard is left out of both.
func printStats(eng *geosir.ShardedEngine) error {
	var tags []string
	size, total := map[string]int{}, 0
	for i := 0; i < eng.NumShards(); i++ {
		sh := eng.Shard(i)
		if sh.NumShapes() == 0 {
			continue
		}
		mean, maxB := sh.HashTable().BucketStats()
		fmt.Printf("shard %d hash table: %d shapes, mean bucket %.2f, max bucket %d\n",
			i, sh.HashTable().Len(), mean, maxB)
		var buf bytes.Buffer
		if err := sh.Save(&buf); err != nil {
			return err
		}
		secs, err := sectable.Parse(buf.Bytes())
		if err != nil {
			return err
		}
		for _, s := range secs {
			if _, ok := size[s.Tag]; !ok {
				tags = append(tags, s.Tag)
			}
			size[s.Tag] += int(s.Len)
		}
		total += buf.Len()
	}
	images := float64(max(eng.NumImages(), 1))
	fmt.Printf("GSIR3 snapshot: %d bytes, %.1f per image\n", total, float64(total)/images)
	fmt.Printf("  %-4s %12s %7s %10s\n", "tag", "bytes", "share", "B/image")
	for _, tag := range tags {
		fmt.Printf("  %-4s %12d %6.1f%% %10.1f\n", tag, size[tag], 100*float64(size[tag])/float64(total), float64(size[tag])/images)
	}
	return nil
}

func run(basePath string, demo int, seed int64, queryStr string, queryOpen bool,
	queryShape, k int, topo, binds string, stats bool, shards int, annMode string) error {

	ann, err := geosir.ParseAnnMode(annMode)
	if err != nil {
		return err
	}
	eng := geosir.NewSharded(geosir.DefaultOptions(), shards)
	base := &shapeLog{imageAdder: eng}
	if err := fillBase(base, basePath, demo, seed); err != nil {
		return err
	}
	if err := eng.Freeze(); err != nil {
		return err
	}
	fmt.Printf("base: %d images, %d shapes, %d normalized copies\n",
		eng.NumImages(), eng.NumShapes(), eng.NumEntries())

	if stats {
		return printStats(eng)
	}

	if topo != "" {
		bmap, err := parseBindings(binds)
		if err != nil {
			return err
		}
		ids, plan, err := eng.Query(context.Background(), topo, bmap)
		if err != nil {
			return err
		}
		fmt.Printf("plan: %s\n", plan)
		fmt.Printf("%d matching images: %v\n", len(ids), ids)
		return nil
	}

	var q geosir.Shape
	switch {
	case queryStr != "":
		var err error
		q, err = parseShape(queryStr, !queryOpen)
		if err != nil {
			return err
		}
	case queryShape >= 0:
		src, err := storedPoly(base.shapes, queryShape)
		if err != nil {
			return err
		}
		// Perturb slightly so the query is a sketch, not the stored copy.
		rng := rand.New(rand.NewSource(seed + 7))
		q = synth.Distort(rng, src, 0.01)
		if q.Validate() != nil {
			q = src
		}
	default:
		return fmt.Errorf("need -query, -query-shape, -topo, or -stats")
	}

	resp, err := eng.Search(context.Background(), geosir.SearchRequest{Query: q, K: k, Ann: ann})
	if err != nil {
		return err
	}
	mode := "exact (floor-ordered search)"
	if resp.Stats.UsedANN {
		mode = "approximate (ANN candidate tier)"
	}
	fmt.Printf("retrieval: %s — %d candidates\n", mode, resp.Stats.Candidates)
	if resp.Stats.UsedANN {
		fmt.Printf("ann tier: %d bucket probes, %d candidates\n",
			resp.Stats.ANNProbes, resp.Stats.ANNCandidates)
	}
	for i, m := range resp.Matches {
		fmt.Printf("  #%d shape %d (image %d): distance %.5f\n",
			i+1, m.ShapeID, m.ImageID, m.Distance)
	}
	return nil
}

// runDump materializes a base (demo or loaded) into the shape file
// format, so a -demo base can be edited and re-used with -base.
func runDump(basePath string, demo int, seed int64, out string) error {
	eng := geosir.New(geosir.DefaultOptions())
	if err := fillBase(eng, basePath, demo, seed); err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# GeoSIR shape base: %d shapes\n", eng.Base().NumShapes())
	for _, s := range eng.Base().Shapes() {
		mode := "open"
		if s.Poly.Closed {
			mode = "closed"
		}
		fmt.Fprintf(w, "%d %s", s.Image, mode)
		for _, p := range s.Poly.Pts {
			fmt.Fprintf(w, " %g,%g", p.X, p.Y)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d shapes to %s\n", eng.Base().NumShapes(), out)
	return nil
}

// runSnapshot materializes a base (demo or loaded), freezes it, and
// writes a GSIR snapshot ready to serve with geosird -snapshot. The base
// is frozen, so the snapshot is GSIR3 — reloads assemble (or, with
// geosird -load-mode mmap, map) the sections instead of rebuilding. One
// shard is written as a single file, the one a single Engine over the
// base writes; more as a directory of per-shard files plus a manifest.
func runSnapshot(basePath string, demo int, seed int64, shards int, out string) error {
	eng := geosir.NewSharded(geosir.DefaultOptions(), shards)
	if err := fillBase(eng, basePath, demo, seed); err != nil {
		return err
	}
	if err := eng.Freeze(); err != nil {
		return err
	}
	if eng.NumShards() == 1 {
		if err := eng.Shard(0).SaveFile(out); err != nil {
			return err
		}
		fmt.Printf("wrote snapshot %s (%d images, %d shapes, %d entries)\n",
			out, eng.NumImages(), eng.NumShapes(), eng.NumEntries())
		return nil
	}
	if err := eng.SaveDir(out); err != nil {
		return err
	}
	fmt.Printf("wrote sharded snapshot %s (%d shards, %d images, %d shapes, %d entries)\n",
		out, eng.NumShards(), eng.NumImages(), eng.NumShapes(), eng.NumEntries())
	return nil
}

// loadBase reads the shape file format described in the package comment.
func loadBase(eng imageAdder, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	images := make(map[int][]geosir.Shape)
	var order []int
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return fmt.Errorf("%s:%d: want \"id closed|open x,y x,y ...\"", path, lineNo)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return fmt.Errorf("%s:%d: bad image id %q", path, lineNo, fields[0])
		}
		closed := fields[1] == "closed"
		if !closed && fields[1] != "open" {
			return fmt.Errorf("%s:%d: expected closed|open, got %q", path, lineNo, fields[1])
		}
		shape, err := parseShape(strings.Join(fields[2:], " "), closed)
		if err != nil {
			return fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
		if _, seen := images[id]; !seen {
			order = append(order, id)
		}
		images[id] = append(images[id], shape)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, id := range order {
		if err := eng.AddImage(id, images[id]); err != nil {
			return fmt.Errorf("image %d: %w", id, err)
		}
	}
	return nil
}

// parseShape parses "x1,y1 x2,y2 ..." into a Shape.
func parseShape(s string, closed bool) (geosir.Shape, error) {
	var pts []geosir.Point
	for _, tok := range strings.Fields(s) {
		xy := strings.Split(tok, ",")
		if len(xy) != 2 {
			return geosir.Shape{}, fmt.Errorf("bad vertex %q, want x,y", tok)
		}
		x, err := strconv.ParseFloat(xy[0], 64)
		if err != nil {
			return geosir.Shape{}, fmt.Errorf("bad x in %q: %w", tok, err)
		}
		y, err := strconv.ParseFloat(xy[1], 64)
		if err != nil {
			return geosir.Shape{}, fmt.Errorf("bad y in %q: %w", tok, err)
		}
		pts = append(pts, geosir.Pt(x, y))
	}
	sh := geosir.Shape{Pts: pts, Closed: closed}
	if err := sh.Validate(); err != nil {
		return geosir.Shape{}, err
	}
	return sh, nil
}

// parseBindings parses "name=x,y x,y ...;name2=..." into shape bindings.
// Shapes in bindings are closed polygons; suffix the name with ~ for an
// open polyline.
func parseBindings(s string) (map[string]geosir.Shape, error) {
	out := make(map[string]geosir.Shape)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return nil, fmt.Errorf("binding %q missing '='", part)
		}
		name := strings.TrimSpace(part[:eq])
		closed := true
		if strings.HasSuffix(name, "~") {
			name = strings.TrimSuffix(name, "~")
			closed = false
		}
		shape, err := parseShape(part[eq+1:], closed)
		if err != nil {
			return nil, fmt.Errorf("binding %q: %w", name, err)
		}
		out[name] = shape
	}
	return out, nil
}
