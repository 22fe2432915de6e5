package geosir

import "errors"

// Sentinel errors of the public API. Every entry point reports state and
// argument problems through these values (possibly wrapped with
// context), so callers branch with errors.Is instead of matching
// message strings, and the HTTP layer maps them to statuses uniformly.
var (
	// ErrNotFrozen is returned by query entry points invoked before
	// Freeze built the retrieval indexes, and by Save of an engine that
	// has shapes but no index to write.
	ErrNotFrozen = errors.New("geosir: engine must be frozen")
	// ErrFrozen is returned by mutating entry points (AddImage) invoked
	// after Freeze made the engine read-only.
	ErrFrozen = errors.New("geosir: engine is frozen")
	// ErrEmptyQuery is returned when a search carries no query geometry:
	// a zero-vertex Query shape, or a ModeSketch request with no sketch
	// shapes.
	ErrEmptyQuery = errors.New("geosir: empty query")
	// ErrBadK is returned when a search asks for a non-positive number
	// of matches.
	ErrBadK = errors.New("geosir: k must be positive")
)
