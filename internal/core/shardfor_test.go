package core

import "testing"

func TestShardForStableAndBounded(t *testing.T) {
	ids := []int{0, 1, 2, 17, -3, 1 << 40, -(1 << 40), 999999}
	for _, shards := range []int{1, 2, 3, 7, 16} {
		for _, id := range ids {
			s := ShardFor(id, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardFor(%d, %d) = %d out of range", id, shards, s)
			}
			if s2 := ShardFor(id, shards); s2 != s {
				t.Fatalf("ShardFor(%d, %d) not stable: %d then %d", id, shards, s, s2)
			}
		}
	}
	for _, id := range ids {
		if s := ShardFor(id, 1); s != 0 {
			t.Fatalf("ShardFor(%d, 1) = %d, want 0", id, s)
		}
	}
}

func TestShardForSpreads(t *testing.T) {
	const shards = 4
	counts := make([]int, shards)
	for id := 0; id < 1000; id++ {
		counts[ShardFor(id, shards)]++
	}
	for s, c := range counts {
		if c < 150 || c > 350 {
			t.Fatalf("shard %d got %d of 1000 sequential ids; want a roughly even spread", s, c)
		}
	}
}
