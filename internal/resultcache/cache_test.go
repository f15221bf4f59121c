package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
)

func TestSumFraming(t *testing.T) {
	a := Sum([]byte("ab"), []byte("c"))
	b := Sum([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("section boundaries are not part of the key: Sum(ab,c) == Sum(a,bc)")
	}
	if Sum([]byte("x")) != Sum([]byte("x")) {
		t.Fatal("Sum is not deterministic")
	}
	if Sum([]byte("x")) == Sum([]byte("x"), nil) {
		t.Fatal("trailing empty section must change the key")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	k := Sum([]byte("hello"))
	parsed, err := ParseKey(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != k {
		t.Fatalf("ParseKey(%q) = %v, want %v", k.String(), parsed, k)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Fatal("ParseKey accepted junk")
	}
	if _, err := ParseKey("abcd"); err == nil {
		t.Fatal("ParseKey accepted a short key")
	}
}

func TestMemoryGetPut(t *testing.T) {
	c, err := New(4, "")
	if err != nil {
		t.Fatal(err)
	}
	k := Sum([]byte("job"))
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(k, []byte("result")); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get(k)
	if !ok || string(v) != "result" {
		t.Fatalf("Get = %q,%v want result,true", v, ok)
	}
	// The cache owns its copy: mutating the returned slice must not
	// corrupt the stored value.
	v[0] = 'X'
	v2, _ := c.Get(k)
	if string(v2) != "result" {
		t.Fatalf("stored value corrupted through returned slice: %q", v2)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(2, "")
	if err != nil {
		t.Fatal(err)
	}
	k := func(i int) Key { return Sum([]byte(fmt.Sprintf("k%d", i))) }
	c.Put(k(0), []byte("v0"))
	c.Put(k(1), []byte("v1"))
	c.Get(k(0)) // refresh 0; 1 becomes LRU
	c.Put(k(2), []byte("v2"))
	if _, ok := c.Get(k(1)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(k(0)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskLayer(t *testing.T) {
	dir := t.TempDir()
	c, err := New(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1 := Sum([]byte("a")), Sum([]byte("b"))
	c.Put(k0, []byte("v0"))
	c.Put(k1, []byte("v1")) // evicts k0 from memory; it stays on disk
	if c.Len() != 1 {
		t.Fatalf("memory holds %d entries, want 1", c.Len())
	}
	v, ok := c.Get(k0)
	if !ok || string(v) != "v0" {
		t.Fatalf("disk layer lost evicted entry: %q,%v", v, ok)
	}
	if st := c.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want one disk hit", st)
	}

	// A fresh cache over the same directory sees earlier writes.
	c2, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c2.Get(k1); !ok || string(v) != "v1" {
		t.Fatalf("new process missed persisted entry: %q,%v", v, ok)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(16, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := Sum([]byte(fmt.Sprintf("k%d", i%20)))
				want := []byte(fmt.Sprintf("v%d", i%20))
				c.Put(k, want)
				if v, ok := c.Get(k); ok && !bytes.Equal(v, want) {
					t.Errorf("goroutine %d: Get = %q want %q", g, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDiskIntegrity flips a byte in one disk entry and truncates
// another. Read through a fresh cache, each is a miss, is removed and is
// counted corrupt; the intact entry beside them still hits, and a later
// Put and Get of a damaged key round-trip.
func TestDiskIntegrity(t *testing.T) {
	dir := t.TempDir()
	c, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	flipped, cut, intact := Sum([]byte("flipped")), Sum([]byte("cut")), Sum([]byte("intact"))
	for _, k := range []Key{flipped, cut, intact} {
		if err := c.Put(k, []byte("result of "+k.String()[:8])); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(c.path(flipped))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 1
	if err := os.WriteFile(c.path(flipped), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(c.path(cut), 5); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{flipped, cut} {
		if v, ok := fresh.Get(k); ok {
			t.Errorf("damaged entry %s served %q", k.String()[:8], v)
		}
		if _, err := os.Stat(fresh.path(k)); !os.IsNotExist(err) {
			t.Errorf("damaged entry %s left on disk (stat: %v)", k.String()[:8], err)
		}
	}
	if v, ok := fresh.Get(intact); !ok || string(v) != "result of "+intact.String()[:8] {
		t.Errorf("intact entry read %q, %v", v, ok)
	}
	if st := fresh.Stats(); st.Corrupt != 2 || st.Misses != 2 || st.DiskHits != 1 {
		t.Errorf("stats = %+v, want 2 corrupt misses and 1 disk hit", st)
	}

	if err := fresh.Put(flipped, []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	again, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := again.Get(flipped); !ok || string(v) != "recomputed" {
		t.Errorf("re-put entry read %q, %v", v, ok)
	}
}
