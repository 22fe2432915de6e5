// Package atomicfile replaces a file as a whole: a crash or a write error
// at any point leaves either the old file or the new one at the path,
// never a mix, and the new one is durable once Write returns.
package atomicfile

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// newFileMode is the mode of a file Write creates where none existed.
const newFileMode fs.FileMode = 0o644

// Write replaces path with the bytes write writes: to a temp file in
// path's directory, which is fsynced, closed and renamed over path, and
// then the directory is fsynced. The published file keeps the mode of the
// file it replaces (newFileMode for a new one). On any failure the temp
// file is removed and path is untouched. A non-nil wrap interposes on the
// temp file's writer (fault injection in tests). write's own error is
// returned as it is.
func Write(path string, wrap func(io.Writer) io.Writer, write func(io.Writer) error) error {
	mode := newFileMode
	if fi, err := os.Stat(path); err == nil {
		mode = fi.Mode().Perm()
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicfile: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var w io.Writer = tmp
	if wrap != nil {
		w = wrap(tmp)
	}
	if err := write(w); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(mode); err != nil {
		tmp.Close()
		return fmt.Errorf("atomicfile: setting mode of %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("atomicfile: syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("atomicfile: closing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("atomicfile: publishing %s: %w", path, err)
	}
	SyncDir(dir)
	return nil
}

// SyncDir fsyncs directory dir, making the entries created or renamed in
// it durable. Best-effort: some filesystems reject fsync on a directory,
// and the entry exists already.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
