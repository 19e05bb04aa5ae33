package cache_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/par"
)

// key derives a distinct Key from an integer.
func key(i int) cache.Key {
	h := cache.NewHasher("cache-test")
	h.Int(int64(i))
	return h.Sum()
}

func TestSealOpenRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 1000)} {
		blob := cache.Seal(payload)
		got, ok := cache.Open(blob)
		if !ok {
			t.Fatalf("sealed %d-byte payload does not open", len(payload))
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload did not round-trip: %v != %v", got, payload)
		}
	}
}

// TestOpenRejectsDamage flips, truncates, and extends a sealed frame and
// checks every damaged variant reads as a miss.
func TestOpenRejectsDamage(t *testing.T) {
	blob := cache.Seal([]byte("the compiled method payload"))
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		if _, ok := cache.Open(bad); ok {
			t.Fatalf("bit flip at byte %d still opens", i)
		}
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, ok := cache.Open(blob[:cut]); ok {
			t.Fatalf("truncation to %d bytes still opens", cut)
		}
	}
	if _, ok := cache.Open(append(append([]byte(nil), blob...), 0)); ok {
		t.Fatal("trailing byte still opens")
	}
}

func TestMemoryGetPut(t *testing.T) {
	c := cache.New()
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(key(1), []byte("one"))
	got, ok := c.Get(key(1))
	if !ok || string(got) != "one" {
		t.Fatalf("Get after Put: %q, %v", got, ok)
	}
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("wrong key hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 1 || s.DiskHits != 0 {
		t.Errorf("stats: %+v", s)
	}
	if s.BytesStored == 0 || s.BytesServed != 3 {
		t.Errorf("byte accounting: %+v", s)
	}
}

// TestDiskWarmStart stores through one cache instance and reads through a
// fresh one over the same directory — the cross-process warm start.
func TestDiskWarmStart(t *testing.T) {
	dir := t.TempDir()
	c1, err := cache.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key(7), []byte("persisted"))

	c2, err := cache.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key(7))
	if !ok || string(got) != "persisted" {
		t.Fatalf("disk read-through: %q, %v", got, ok)
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Hits != 1 {
		t.Errorf("stats after disk hit: %+v", s)
	}
	// Second Get is served from memory after promotion.
	if _, ok := c2.Get(key(7)); !ok {
		t.Fatal("promoted entry missing")
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Hits != 2 {
		t.Errorf("stats after promoted hit: %+v", s)
	}
}

// TestCorruptDiskEntryIsMiss damages every persisted file in place; reads
// must degrade to misses (counted as corrupt), and a subsequent Put must
// heal the entry.
func TestCorruptDiskEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c1, err := cache.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key(3), []byte("will be damaged"))

	files, err := filepath.Glob(filepath.Join(dir, "*.cce"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one entry file, got %v (%v)", files, err)
	}
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(files[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := cache.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key(3)); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if s := c2.Stats(); s.Corrupt != 1 || s.Misses != 1 {
		t.Errorf("stats after corrupt read: %+v", s)
	}
	// The recompile path Puts the good bytes back; both tiers heal.
	c2.Put(key(3), []byte("healed"))
	if got, ok := c2.Get(key(3)); !ok || string(got) != "healed" {
		t.Fatalf("entry did not heal: %q, %v", got, ok)
	}
	c3, err := cache.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c3.Get(key(3)); !ok || string(got) != "healed" {
		t.Fatalf("disk did not heal: %q, %v", got, ok)
	}
}

// TestVersionSkewIsMiss fabricates an entry file with a bumped frame
// version; it must read as a miss, not an error.
func TestVersionSkewIsMiss(t *testing.T) {
	dir := t.TempDir()
	c1, err := cache.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key(9), []byte("current"))
	files, _ := filepath.Glob(filepath.Join(dir, "*.cce"))
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Byte 4 is the low byte of the little-endian version word. The
	// checksum covers it, so recompute nothing: a skewed version must be
	// rejected before (and regardless of) the checksum.
	blob[4]++
	if err := os.WriteFile(files[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := cache.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key(9)); ok {
		t.Fatal("version-skewed entry served as a hit")
	}
}

// TestCacheRace hammers one cache from par.MapCtx workers with mixed hits
// and misses on overlapping keys — the access pattern a parallel compile
// stage produces. Run under `make race`, this is the pool-contention
// regression test; the assertions also pin that every Get returns either
// nothing or exactly the bytes some Put stored.
func TestCacheRace(t *testing.T) {
	dir := t.TempDir()
	c, err := cache.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 400
	const distinct = 37 // tasks per key > pool width: plenty of hit/miss races
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i)}, 16+i%32)
	}
	err = par.EachCtx(t.Context(), 8, tasks, func(i int) error {
		k := i % distinct
		if got, ok := c.Get(key(k)); ok {
			if !bytes.Equal(got, payload(k)) {
				t.Errorf("task %d read foreign bytes for key %d", i, k)
			}
			return nil
		}
		c.Put(key(k), payload(k))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != distinct {
		t.Errorf("cache holds %d entries, want %d", c.Len(), distinct)
	}
	s := c.Stats()
	if s.Hits+s.Misses != tasks {
		t.Errorf("hits %d + misses %d != %d tasks", s.Hits, s.Misses, tasks)
	}
	if s.Hits == 0 || s.Misses < distinct {
		t.Errorf("implausible mix: %+v", s)
	}
	// Every key must be readable afterwards, from memory and from disk.
	c2, err := cache.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < distinct; k++ {
		for _, cc := range []*cache.Cache{c, c2} {
			if got, ok := cc.Get(key(k)); !ok || !bytes.Equal(got, payload(k)) {
				t.Fatalf("key %d unreadable after the race (ok=%v)", k, ok)
			}
		}
	}
}
