// Package qcache is the serving tier's query-result cache: a canonical
// query fingerprint, a sharded byte-bounded LRU over encoded search
// responses, and singleflight coalescing of concurrent identical
// requests.
//
// The design splits correctness from freshness:
//
//   - Correctness is byte-identity, not TTL. A cache entry is the exact
//     response body the server wrote for the fingerprint's equivalence
//     class, and the fingerprint includes the snapshot epoch, so an
//     entry can never be served against a different engine state.
//     Entries therefore never expire by time — they are valid for as
//     long as their epoch's engine is the serving engine, and they become
//     unreachable (wrong epoch, hence wrong fingerprint) the instant a
//     hot-swap lands.
//
//   - The fingerprint canonicalizes the query into the same kind of
//     frame the engine evaluates it in (a diameter pair normalized onto
//     ((0,0),(1,0)), with a placement-invariant anchor choice — see
//     canonicalShape), so translated / rotated / scaled duplicates of
//     one query — the similarity transforms retrieval is invariant
//     under — collide onto one entry instead of recomputing the same
//     answer per placement.
//
// See DESIGN.md §4.11 for the full argument.
package qcache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

	geosir "repro"
	"repro/internal/geom"
)

// Fingerprint identifies one equivalence class of search requests under
// a fixed snapshot epoch. It is a SHA-256 over a canonical encoding, so
// collisions between genuinely different requests are cryptographically
// negligible and the cache never has to store keys for comparison.
type Fingerprint [sha256.Size]byte

// quantum is the grid the canonical vertex stream is snapped to before
// hashing. Canonical coordinates live in the unit-diameter frame (the
// lune around [0,1]×[-1,1]), where the float noise of normalizing two
// placements of the same shape is ~1e-15; a 1e-9 grid absorbs that noise
// while keeping genuinely different shapes (which differ at ≥ the
// engine's own 1e-9 geometric slack) apart. Quantization can split two
// equivalent queries that straddle a grid boundary — that costs a cache
// miss, never a wrong answer.
const quantum = 1e9

// fpVersion tags the encoding so a future change to the fingerprint
// definition cannot alias entries produced by an older geosird.
const fpVersion = "GSIRQFP1"

// SearchFingerprint returns the fingerprint of a search request against
// the given snapshot epoch. ok is false when the request cannot be
// canonicalized (degenerate query, empty sketch, NaN coordinates, an
// unknown mode): such requests bypass the cache and let the engine
// produce its usual error or result.
//
// The fingerprint covers everything that can change the response bytes —
// the canonical vertex stream of every query shape, K, Mode, Ann, and
// the epoch — and deliberately omits the scheduling policy (Exec), which
// only changes how the work is scheduled, never what is returned.
func SearchFingerprint(req geosir.SearchRequest, epoch uint64) (Fingerprint, bool) {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(fpVersion))
	u64(epoch)
	u64(uint64(int64(req.K)))
	u64(uint64(int64(req.Mode)))
	u64(uint64(int64(req.Ann)))

	switch req.Mode {
	case geosir.ModeAuto, geosir.ModeExact, geosir.ModeApproximate:
		if !hashShape(h, u64, req.Query) {
			return Fingerprint{}, false
		}
	case geosir.ModeSketch:
		if len(req.Sketch) == 0 {
			return Fingerprint{}, false
		}
		// Sketch shapes are order-significant: PerShape distances come
		// back in request order.
		u64(uint64(len(req.Sketch)))
		for _, q := range req.Sketch {
			if !hashShape(h, u64, q) {
				return Fingerprint{}, false
			}
		}
	default:
		return Fingerprint{}, false
	}

	var fp Fingerprint
	h.Sum(fp[:0])
	return fp, true
}

// hashShape canonicalizes one query shape and feeds its quantized
// normalized vertex stream to the hash. It returns false when the shape
// cannot be canonicalized.
func hashShape(h hash.Hash, u64 func(uint64), q geosir.Shape) bool {
	cq, ok := canonicalShape(q)
	if !ok {
		return false
	}
	u64(uint64(len(cq.Pts)))
	closed := uint64(0)
	if cq.Closed {
		closed = 1
	}
	u64(closed)
	for _, p := range cq.Pts {
		qx, ok1 := quantize(p.X)
		qy, ok2 := quantize(p.Y)
		if !ok1 || !ok2 {
			return false
		}
		u64(uint64(qx))
		u64(uint64(qy))
	}
	return true
}

// maxFingerprintPts bounds the brute-force anchor-pair scan below.
// Query shapes are user sketches of at most a few hundred vertices;
// anything larger bypasses the cache rather than paying O(n²) here.
const maxFingerprintPts = 512

// canonicalShape maps a query shape into the same kind of canonical
// frame the engine evaluates it in (NormalizeCanonical: a diameter pair
// onto ((0,0),(1,0))) — but with a *placement-invariant* choice of the
// anchor pair. The engine's own Diameter() breaks exact ties (a square
// has two equal diagonals) by float noise, so two placements of one
// symmetric shape can normalize into different frames; that is harmless
// for distance computation (the measure is frame-invariant) but fatal
// for a fingerprint. Here the anchor is the lexicographically first
// vertex pair (by original index) whose squared length is within a
// 1e-9 relative tolerance of the maximum: exact ties sit ~1e-15 apart
// across placements, far inside the tolerance, so every placement picks
// the same pair. A genuinely near-tied pair straddling the tolerance
// can split an equivalence class — a cache miss, never a wrong answer.
func canonicalShape(q geosir.Shape) (geom.Poly, bool) {
	if len(q.Pts) < 2 || len(q.Pts) > maxFingerprintPts {
		return geom.Poly{}, false
	}
	for _, p := range q.Pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return geom.Poly{}, false
		}
	}
	var d2max float64
	for i := 0; i < len(q.Pts); i++ {
		for j := i + 1; j < len(q.Pts); j++ {
			if d2 := q.Pts[i].Dist2(q.Pts[j]); d2 > d2max {
				d2max = d2
			}
		}
	}
	if math.Sqrt(d2max) <= geom.Eps {
		return geom.Poly{}, false // degenerate: zero diameter
	}
	cut := d2max * (1 - 1e-9)
	for i := 0; i < len(q.Pts); i++ {
		for j := i + 1; j < len(q.Pts); j++ {
			if q.Pts[i].Dist2(q.Pts[j]) >= cut {
				tr, err := geom.NormalizeOnto(q.Pts[i], q.Pts[j])
				if err != nil {
					return geom.Poly{}, false
				}
				return q.Transform(tr), true
			}
		}
	}
	return geom.Poly{}, false // unreachable: the max pair passes its own cut
}

// quantize snaps a canonical coordinate onto the fingerprint grid.
// Canonical coordinates are bounded by the lune (|x|,|y| ≤ 2 with slack),
// so the scaled value always fits an int64; out-of-range or non-finite
// values (a degenerate normalization) refuse to fingerprint.
func quantize(v float64) (int64, bool) {
	s := math.Round(v * quantum)
	if math.IsNaN(s) || s > math.MaxInt64 || s < math.MinInt64 {
		return 0, false
	}
	return int64(s), true
}
