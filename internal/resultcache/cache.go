// Package resultcache is a content-addressed store for simulation
// results: values are byte blobs keyed by the SHA-256 of a canonical
// serialization of everything that determines the result (scenario,
// run configuration, seed, version salt). Because the simulator is
// deterministic, a key collision-free hash of its full input *is* the
// result's identity — a second request for the same work can be served
// from the cache with zero simulation runs.
//
// The store is a bounded in-memory LRU with an optional write-through
// on-disk layer. Evicted entries survive on disk (when a directory is
// configured) and are promoted back into memory on the next Get, so the
// memory bound caps the working set, not the total corpus. A disk entry
// carries the SHA-256 of its blob, and a read verifies it: a file that
// was truncated, altered or written by a different format reads as a
// miss and is removed, never served. All methods are safe for concurrent
// use; hit/miss/eviction counters feed the service's /metrics endpoint.
package resultcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Key is a content address: the SHA-256 of the canonical serialization
// of a result's full input.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("resultcache: parsing key: %w", err)
	}
	if len(b) != len(k) {
		return k, fmt.Errorf("resultcache: key has %d bytes, want %d", len(b), len(k))
	}
	copy(k[:], b)
	return k, nil
}

// Sum derives a key from an ordered list of byte sections. Each section
// is length-prefixed (8-byte big-endian) before hashing, so section
// boundaries are part of the identity: Sum("ab","c") != Sum("a","bc").
// Callers hash labeled canonical encodings — e.g. (salt, scenario,
// config, seed) — so that any input change moves the key.
func Sum(sections ...[]byte) Key {
	h := sha256.New()
	var n [8]byte
	for _, s := range sections {
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write(s)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Stats are the cache's monotonic counters plus the current entry count.
type Stats struct {
	// Hits counts Gets served from memory or disk; Misses the rest.
	Hits   int64
	Misses int64
	// DiskHits counts the subset of Hits that had to read the disk
	// layer (the entry had been evicted from memory, or was written by
	// an earlier process).
	DiskHits int64
	// Puts counts stores; Evictions counts memory-LRU evictions (the
	// evicted entry survives on disk when a directory is configured).
	Puts      int64
	Evictions int64
	// Corrupt counts disk entries that failed their checksum or were too
	// short to hold one; each was removed and counted as a miss.
	Corrupt int64
	// Entries is the current in-memory entry count.
	Entries int
}

type entry struct {
	key   Key
	value []byte
}

// Cache is a bounded LRU of result blobs with an optional disk layer.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[Key]*list.Element
	dir   string

	hits, misses, diskHits, puts, evictions, corrupt int64
}

// New builds a cache holding at most maxEntries blobs in memory
// (maxEntries <= 0 means an effectively unbounded memory layer). dir,
// when non-empty, enables the write-through disk layer under that
// directory (created if missing).
func New(maxEntries int, dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: creating %s: %w", dir, err)
		}
	}
	return &Cache{
		max:   maxEntries,
		ll:    list.New(),
		items: make(map[Key]*list.Element),
		dir:   dir,
	}, nil
}

// path shards entries by the first key byte so no single directory
// accumulates the whole corpus.
func (c *Cache) path(k Key) string {
	hexk := k.String()
	return filepath.Join(c.dir, hexk[:2], hexk+".bin")
}

// Get returns a copy of the blob stored under k. A memory miss falls
// through to the disk layer; a disk hit is promoted back into memory.
func (c *Cache) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		v := append([]byte(nil), el.Value.(*entry).value...)
		c.hits++
		c.mu.Unlock()
		return v, true
	}
	dir := c.dir
	c.mu.Unlock()

	if dir != "" {
		if v, ok := c.readDisk(k); ok {
			c.mu.Lock()
			c.hits++
			c.diskHits++
			c.insertLocked(k, v)
			c.mu.Unlock()
			return append([]byte(nil), v...), true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// readDisk returns the blob of k's disk entry when the entry's checksum
// holds. An entry shorter than a checksum or failing it is removed and
// counted in Corrupt.
func (c *Cache) readDisk(k Key) ([]byte, bool) {
	path := c.path(k)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if len(b) >= sha256.Size {
		v := b[sha256.Size:]
		if sum := sha256.Sum256(v); bytes.Equal(sum[:], b[:sha256.Size]) {
			return v, true
		}
	}
	// A failed removal leaves the entry to fail again, or to a Put.
	_ = os.Remove(path)
	c.mu.Lock()
	c.corrupt++
	c.mu.Unlock()
	return nil, false
}

// Put stores a copy of v under k, evicting the least recently used
// in-memory entries beyond the bound. With a disk layer the write is
// atomic (temp file + rename), so a concurrent reader sees either the
// old blob or the new one, never a torn file. The file holds the blob's
// SHA-256, then the blob.
func (c *Cache) Put(k Key, v []byte) error {
	c.mu.Lock()
	c.puts++
	c.insertLocked(k, append([]byte(nil), v...))
	dir := c.dir
	c.mu.Unlock()

	if dir == "" {
		return nil
	}
	path := c.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	sum := sha256.Sum256(v)
	if _, err := tmp.Write(append(sum[:], v...)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	return nil
}

// insertLocked adds or refreshes the in-memory entry and enforces the
// LRU bound. Caller holds c.mu.
func (c *Cache) insertLocked(k Key, v []byte) {
	if el, ok := c.items[k]; ok {
		el.Value.(*entry).value = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&entry{key: k, value: v})
	for c.max > 0 && c.ll.Len() > c.max {
		last := c.ll.Back()
		if last == nil {
			break
		}
		c.ll.Remove(last)
		delete(c.items, last.Value.(*entry).key)
		c.evictions++
	}
}

// Len returns the current in-memory entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		DiskHits:  c.diskHits,
		Puts:      c.puts,
		Evictions: c.evictions,
		Corrupt:   c.corrupt,
		Entries:   c.ll.Len(),
	}
}
