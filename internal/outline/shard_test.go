package outline

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// imageBytes builds one app, compiles it fresh (outlining mutates methods
// in place), outlines under opts, links, and serializes.
func imageBytes(t *testing.T, seed int64, methods int, opts Options) []byte {
	t.Helper()
	app, _ := genApp(t, seed, methods)
	cms := compile(t, app, true)
	blobs, _, err := RunVerifiedCtx(t.Context(), cms, opts)
	if err != nil {
		t.Fatal(err)
	}
	img := link(t, cms, blobs)
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardedOneShardMatchesGlobal pins the property that makes
// DetectShards a tunable rather than a fork: the sharded machinery at one
// shard — forced through the merge and the method-coordinate selection —
// serializes to exactly the bytes of the sequence-coordinate global path.
func TestShardedOneShardMatchesGlobal(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		base := Options{Rounds: 2}
		global := imageBytes(t, seed, 120, base)

		forced := base
		forced.DetectShards = 1
		forced.forceSharded = true
		sharded := imageBytes(t, seed, 120, forced)

		if !bytes.Equal(global, sharded) {
			t.Fatalf("seed %d: sharded(1) image differs from global (%d vs %d bytes)",
				seed, len(sharded), len(global))
		}
	}
}

// TestShardedDeterminism pins the contract for real shard counts: the
// image is byte-identical at every worker width and with several parallel
// trees layered on top.
func TestShardedDeterminism(t *testing.T) {
	base := Options{DetectShards: 4}
	want := imageBytes(t, 3, 150, base)
	for _, workers := range []int{1, 3, 8} {
		opts := base
		opts.Workers = workers
		if got := imageBytes(t, 3, 150, opts); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: sharded image differs", workers)
		}
	}
	opts := base
	opts.Parallel = 3
	treed := imageBytes(t, 3, 150, opts)
	again := imageBytes(t, 3, 150, opts)
	if !bytes.Equal(treed, again) {
		t.Fatal("trees+shards image not reproducible")
	}
}

// TestShardedStillOutlines checks the tradeoff stays a tradeoff: sharded
// detection must still find a substantial share of what the global
// structure finds (it can only lose repeats whose occurrences never pair
// up inside one shard).
func TestShardedStillOutlines(t *testing.T) {
	app, _ := genApp(t, 11, 150)
	cms := compile(t, app, true)
	_, globalStats, err := RunCtx(t.Context(), compile(t, app, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, shardStats, err := RunCtx(t.Context(), cms, Options{DetectShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if globalStats.NetWordsSaved() <= 0 {
		t.Fatalf("global path saved nothing (%d words)", globalStats.NetWordsSaved())
	}
	if got, want := shardStats.NetWordsSaved(), globalStats.NetWordsSaved()/2; got < want {
		t.Fatalf("sharded detection saved %d words, want >= %d (global saved %d)",
			got, want, globalStats.NetWordsSaved())
	}
}

// TestGroupPoolsHonourCancel drives outlineGroup directly — below the
// group fan-out, which would otherwise catch the cancellation first — so
// the nested pools themselves must observe ctx: the sequence builder's
// mask pool on the global route and, with DetectShards 4, the shard pool
// plus each shard's mask pool. A cancelled run returns ctx.Err() and
// never indexes the results it did not get.
func TestGroupPoolsHonourCancel(t *testing.T) {
	app, _ := genApp(t, 5, 60)
	cms := compile(t, app, true)
	units := make([]methodSeq, len(cms))
	var group []int
	for i, cm := range cms {
		if !cm.Meta.IsNative && !cm.Meta.HasIndirectJump {
			units[i] = methodSeq{cm: cm}
			group = append(group, i)
		}
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	for _, shards := range []int{0, 4} {
		for _, workers := range []int{1, 4} {
			opts := Options{DetectShards: shards, Workers: workers}.withDefaults()
			funcs, _, err := outlineGroup(ctx, units, group, opts)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("shards=%d workers=%d: err = %v, want context.Canceled", shards, workers, err)
			}
			if funcs != nil {
				t.Errorf("shards=%d workers=%d: %d functions from a cancelled group", shards, workers, len(funcs))
			}
		}
	}
}
