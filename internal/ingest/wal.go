// Package ingest is the live-ingestion layer of the sharded engine: a
// write-ahead log that makes inserts and deletes durable the moment they
// are acknowledged, and a small delta shard (Delta, one version per insert;
// a delete tombstones the engine's image log) that serves them to queries
// until a background compaction folds them into a frozen shard.
//
// The WAL is the crash-safety half of the LSM-style design (DESIGN.md
// §4.12): an acknowledged write exists either in the manifest (after
// compaction) or in the WAL (before), so a kill -9 at any instant loses
// nothing. Replay is idempotent — records already folded into the
// manifest are skipped by image id — which covers the window between
// the manifest rename (the compaction commit point) and the WAL
// rewrite that drops the folded prefix.
package ingest

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/atomicfile"
	"repro/internal/geom"
)

// walMagic heads every WAL file. The trailing byte versions the record
// encoding.
var walMagic = [8]byte{'G', 'S', 'I', 'R', 'W', 'A', 'L', '1'}

// maxRecordSize bounds one record's payload; anything larger is treated
// as corruption rather than an allocation request.
const maxRecordSize = 16 << 20

// OpKind discriminates WAL records.
type OpKind string

const (
	OpInsert OpKind = "insert"
	OpDelete OpKind = "delete"
)

// Op is one logged mutation. Seq is assigned by the WAL on append and
// strictly increases within a file; replay rejects regressions (they
// can only come from corruption, not torn tails).
type Op struct {
	Seq    uint64      `json:"seq"`
	Kind   OpKind      `json:"op"`
	Image  int         `json:"image"`
	Shapes []geom.Poly `json:"shapes,omitempty"`
}

// Options configures a WAL.
type Options struct {
	// NoSync skips the fsync after each append. Only tests and
	// throughput experiments should set it — an acknowledged write may
	// then be lost to a power cut (though never reordered or torn).
	NoSync bool
	// WrapWriter, when non-nil, interposes on every file writer the WAL
	// creates (the append stream and rewrite temp files) — the
	// internal/iofault injection point.
	WrapWriter func(io.Writer) io.Writer
}

// WAL is an append-only log of delta mutations with checksummed,
// length-prefixed records. It is not internally locked; the Ingestor
// serializes access.
type WAL struct {
	path string
	opts Options
	f    *os.File // the file at path; nil after a failed reopen (Rewrite)
	w    io.Writer
	seq  uint64 // last assigned sequence number
	n    int    // live record count in the file
	size int64
}

// openFile opens the log's file; tests swap it to fail a reopen.
var openFile = os.OpenFile

// OpenWAL opens (creating if absent) the log at path and replays it.
// The returned ops are every intact record in order; truncated reports
// whether a torn tail was found and cut (the crash-recovery case — the
// torn record was never acknowledged, so dropping it is correct). A log
// it creates has its directory entry made durable (atomicfile.SyncDir).
func OpenWAL(path string, opts Options) (*WAL, []Op, bool, error) {
	ops, goodEnd, truncated, err := replay(path)
	if err != nil {
		return nil, nil, false, err
	}
	f, err := openFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, false, fmt.Errorf("ingest: opening wal: %w", err)
	}
	if goodEnd == 0 {
		// Fresh (or fully torn) file: start from a clean header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("ingest: resetting wal: %w", err)
		}
		if _, err := f.Write(walMagic[:]); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("ingest: writing wal header: %w", err)
		}
		atomicfile.SyncDir(filepath.Dir(path))
		goodEnd = int64(len(walMagic))
	} else if err := f.Truncate(goodEnd); err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("ingest: truncating torn wal tail: %w", err)
	}
	if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, false, err
	}
	w := &WAL{path: path, opts: opts, n: len(ops), size: goodEnd}
	w.use(f)
	if len(ops) > 0 {
		w.seq = ops[len(ops)-1].Seq
	}
	return w, ops, truncated, nil
}

// replay scans the log, returning the intact records, the offset of the
// last intact record's end, and whether a torn/corrupt tail follows it.
// A missing file replays empty.
func replay(path string) (ops []Op, goodEnd int64, truncated bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("ingest: opening wal: %w", err)
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, 0, true, nil // shorter than a header: treat as empty
	}
	if magic != walMagic {
		return nil, 0, false, fmt.Errorf("ingest: %s is not a delta WAL (magic %q)", path, magic[:])
	}
	goodEnd = int64(len(walMagic))
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return ops, goodEnd, !errors.Is(err, io.EOF), nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || n > maxRecordSize {
			return ops, goodEnd, true, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return ops, goodEnd, true, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return ops, goodEnd, true, nil
		}
		var op Op
		if err := json.Unmarshal(payload, &op); err != nil {
			return ops, goodEnd, true, nil
		}
		if len(ops) > 0 && op.Seq <= ops[len(ops)-1].Seq {
			return nil, 0, false, fmt.Errorf("ingest: wal sequence regressed (%d after %d)", op.Seq, ops[len(ops)-1].Seq)
		}
		ops = append(ops, op)
		goodEnd += int64(len(hdr)) + int64(n)
	}
}

// use makes f, positioned at its end, the file appends go to.
func (w *WAL) use(f *os.File) {
	w.f, w.w = f, f
	if w.opts.WrapWriter != nil {
		w.w = w.opts.WrapWriter(f)
	}
}

// Append assigns the op the next sequence number, writes it, and (unless
// NoSync) fsyncs before returning — the durability point of an
// acknowledged write. On a write error the file is truncated back to the
// last intact record so a failed append never leaves a torn middle. After
// a Rewrite whose reopen failed it reopens the file at the log's path
// first, and fails without writing if that fails again: no op is
// acknowledged that a restart would not replay.
func (w *WAL) Append(op *Op) error {
	if w.f == nil {
		if err := w.reopen(); err != nil {
			return err
		}
	}
	w.seq++
	op.Seq = w.seq
	rec, err := appendRecord(nil, op)
	if err != nil {
		w.seq--
		return err
	}
	if _, err := w.w.Write(rec); err != nil {
		// Roll back to the last intact boundary; the op was never
		// acknowledged, so it must not replay after a later crash.
		w.seq--
		_ = w.f.Truncate(w.size)
		_, _ = w.f.Seek(w.size, io.SeekStart)
		return fmt.Errorf("ingest: appending wal record: %w", err)
	}
	if !w.opts.NoSync {
		if err := w.f.Sync(); err != nil {
			// Same rollback as a failed write: the record is fully in the
			// file but was never acknowledged, so it must not survive to
			// replay — and w.size must stay the true intact boundary, or a
			// later append's write-error truncation would chop into
			// acknowledged records.
			w.seq--
			_ = w.f.Truncate(w.size)
			_, _ = w.f.Seek(w.size, io.SeekStart)
			return fmt.Errorf("ingest: syncing wal: %w", err)
		}
	}
	w.size += int64(len(rec))
	w.n++
	return nil
}

// appendRecord appends op's record to b: u32 payload length | u32
// CRC32 of the payload | the JSON payload, all little-endian.
func appendRecord(b []byte, op *Op) ([]byte, error) {
	payload, err := json.Marshal(op)
	if err != nil {
		return nil, fmt.Errorf("ingest: encoding wal record: %w", err)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...), nil
}

// Rewrite atomically replaces the log's contents with the given ops
// (keeping their sequence numbers) through atomicfile.Write, the routine
// snapshot saves use. It is called after a compaction commits to drop the
// folded prefix; a crash anywhere inside leaves either the old or the new
// log, and replay of the old one is idempotent against the new manifest.
func (w *WAL) Rewrite(ops []Op) error {
	buf := append([]byte{}, walMagic[:]...)
	for i := range ops {
		var err error
		if buf, err = appendRecord(buf, &ops[i]); err != nil {
			return err
		}
	}
	err := atomicfile.Write(w.path, w.opts.WrapWriter, func(out io.Writer) error {
		if _, err := out.Write(buf); err != nil {
			return fmt.Errorf("ingest: rewriting wal: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The old handle is on the replaced file: appends through it would
	// never replay. Drop it, then swap the append handle to the new file.
	w.f.Close()
	w.f = nil
	w.size = int64(len(buf))
	w.n = len(ops)
	if len(ops) > 0 && ops[len(ops)-1].Seq > w.seq {
		w.seq = ops[len(ops)-1].Seq
	}
	return w.reopen()
}

// reopen opens the file at the log's path for appends, at its end.
func (w *WAL) reopen() error {
	f, err := openFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: reopening rewritten wal: %w", err)
	}
	if _, err := f.Seek(w.size, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("ingest: reopening rewritten wal: %w", err)
	}
	w.use(f)
	return nil
}

// Len returns the number of live records.
func (w *WAL) Len() int { return w.n }

// Size returns the file size in bytes.
func (w *WAL) Size() int64 { return w.size }

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Close closes the underlying file.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}
