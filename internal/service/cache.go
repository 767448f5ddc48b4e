package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"

	"repro/internal/solidity"
)

// Key is the content address of a source text: a SHA-256 over the part of
// the text a cached value depends on (ContentKey, sourceKey).
type Key string

// ContentKey normalizes src (comments stripped, whitespace collapsed) and
// hashes it: the fingerprint cache's key. Two sources differing only in
// comments or whitespace share a key — the same normalization the study
// pipeline uses for deduplication — and a fingerprint does not depend on
// either.
func ContentKey(src string) Key {
	s := solidity.StripComments(src)
	h := sha256.Sum256([]byte(strings.Join(strings.Fields(s), " ")))
	return Key(hex.EncodeToString(h[:]))
}

// sourceKey hashes src's exact bytes: the report cache's key. A CCC report
// carries the line and column of every finding, so two sources ContentKey
// collapses may not share one.
func sourceKey(src string) Key {
	h := sha256.Sum256([]byte(src))
	return Key(hex.EncodeToString(h[:]))
}

// CacheStats is a point-in-time view of one cache's effectiveness, reported
// by the /metrics endpoint.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Len       int   `json:"len"`
	Cap       int   `json:"cap"`
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// lru is a mutex-guarded, fixed-capacity LRU cache from content keys to
// values. A nil *lru (capacity < 0, used by benchmarks to measure the
// uncached path) never hits and never stores.
type lru[V any] struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[Key]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type lruEntry[V any] struct {
	key Key
	val V
}

// newLRU returns a cache holding up to capacity entries; capacity < 0
// disables the cache entirely (every Get misses, Put is a no-op).
func newLRU[V any](capacity int) *lru[V] {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = DefaultCacheEntries
	}
	return &lru[V]{cap: capacity, ll: list.New(), items: make(map[Key]*list.Element)}
}

func (c *lru[V]) Get(k Key) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(lruEntry[V]).val, true
}

func (c *lru[V]) Put(k Key, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value = lruEntry[V]{key: k, val: v}
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(lruEntry[V]{key: k, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(lruEntry[V]).key)
		c.evictions++
	}
}

func (c *lru[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *lru[V]) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: c.ll.Len(), Cap: c.cap}
}
