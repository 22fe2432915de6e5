package core

// ShardFor returns the shard an image id is assigned to, out of shards
// partitions. The mapping is a pure function of (imageID, shards) —
// stable across processes, insertion orders, and restarts — using an
// FNV-1a hash so that sequential, clustered, or negative image ids all
// spread evenly.
func ShardFor(imageID, shards int) int {
	if shards <= 1 {
		return 0
	}
	// FNV-1a over the 8 little-endian bytes of the id.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	v := uint64(int64(imageID))
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= prime64
	}
	return int(h % uint64(shards))
}
