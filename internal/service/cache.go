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
// the text a cached value depends on, hex-encoded.
type Key string

// ContentKey normalizes src (comments stripped, whitespace collapsed) and
// hashes it: two sources differing only in comments or whitespace share a
// key, the same normalization the study pipeline uses for deduplication. It
// keys no cache: newline placement and Unicode spaces can change what the
// snippet grammar parses (see fingerprintKey).
func ContentKey(src string) Key {
	s := solidity.StripComments(src)
	h := sha256.Sum256([]byte(strings.Join(strings.Fields(s), " ")))
	return Key(hex.EncodeToString(h[:]))
}

// sourceKey hashes src's exact bytes: the report cache's key. A CCC report
// carries the line and column of every finding, so two sources that differ
// in layout may not share one.
func sourceKey(src string) Key {
	h := sha256.Sum256([]byte(src))
	return Key(hex.EncodeToString(h[:]))
}

// digest is a raw SHA-256, the fingerprint cache's key.
type digest [sha256.Size]byte

// fingerprintKey hashes what src's fingerprint depends on: src as the lexer
// sees it. Every gap between tokens (a run of comments and of the four
// bytes the lexer skips: space, tab, CR and LF) becomes one byte, '\n' if
// the run held a newline and ' ' if not, and everything else, quoted
// literals included, stays verbatim. The collapsed text lexes to the same
// tokens as src, each with the same newline flag the snippet grammar ends
// statements on, so two sources with one key parse to one tree up to
// positions; only a parse error, which carries a position, tells them apart.
// The gap before the first token is dropped: the parser reads its newline
// only once it has recorded an error. A U+00A0 no-break space is not a gap:
// the lexer reads it as ILLEGAL.
func fingerprintKey(src string) digest {
	bp := keyBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	i := 0
	if len(src) > 0 && isGapStart(src, 0) {
		i, _ = skipGap(src, 0)
	}
	for i < len(src) {
		switch c := src[i]; {
		case isGapStart(src, i):
			nl := false
			i, nl = skipGap(src, i)
			if nl {
				buf = append(buf, '\n')
			} else {
				buf = append(buf, ' ')
			}
		case c == '"' || c == '\'':
			end := stringEnd(src, i)
			buf = append(buf, src[i:end]...)
			i = end
		default:
			j := i + 1
			for j < len(src) && !isGapStart(src, j) && src[j] != '"' && src[j] != '\'' {
				j++
			}
			buf = append(buf, src[i:j]...)
			i = j
		}
	}
	sum := sha256.Sum256(buf)
	if cap(buf) <= maxPooledKeyBuf {
		*bp = buf
		keyBufs.Put(bp)
	}
	return sum
}

// maxPooledKeyBuf caps the buffers keyBufs keeps, so that one huge source
// does not pin its buffer.
const maxPooledKeyBuf = 1 << 16

var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// isGapStart reports whether a gap between tokens starts at src[i]: a byte
// the lexer skips, or a comment.
func isGapStart(src string, i int) bool {
	switch src[i] {
	case ' ', '\t', '\r', '\n':
		return true
	case '/':
		return i+1 < len(src) && (src[i+1] == '/' || src[i+1] == '*')
	}
	return false
}

// skipGap returns the end of the gap starting at src[i] and whether it
// holds a newline, scanning comments as the lexer does: a line comment
// stops before its newline, and an unterminated block comment runs to the
// end of src.
func skipGap(src string, i int) (int, bool) {
	nl := false
	for i < len(src) && isGapStart(src, i) {
		switch {
		case src[i] == '/' && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case src[i] == '/':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				end = len(src) - i - 2
			}
			nl = nl || strings.IndexByte(src[i+2:i+2+end], '\n') >= 0
			i = min(i+2+end+2, len(src))
		default:
			nl = nl || src[i] == '\n'
			i++
		}
	}
	return i, nl
}

// stringEnd returns the end of the quoted literal starting at src[i],
// scanning as the lexer does: the literal ends after its closing quote,
// before a newline, or at the end of src, and a backslash escapes the byte
// after it.
func stringEnd(src string, i int) int {
	quote := src[i]
	for j := i + 1; j < len(src); j++ {
		switch src[j] {
		case quote:
			return j + 1
		case '\n':
			return j
		case '\\':
			j++
		}
	}
	return len(src)
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
type lru[K comparable, V any] struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[K]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRU returns a cache holding up to capacity entries; capacity < 0
// disables the cache entirely (every Get misses, Put is a no-op).
func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = DefaultCacheEntries
	}
	return &lru[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns k's value when the cache holds one that accept takes (a nil
// accept takes any), counting a hit; otherwise it counts a miss. accept
// runs under the cache's lock, so it must be a quick comparison that does
// not use the cache.
func (c *lru[K, V]) Get(k K, accept func(V) bool) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if ok && accept != nil {
		ok = accept(el.Value.(lruEntry[K, V]).val)
	}
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(lruEntry[K, V]).val, true
}

// Put stores v under k as the most recently used entry, evicting the least
// recently used one when the cache is full.
func (c *lru[K, V]) Put(k K, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value = lruEntry[K, V]{key: k, val: v}
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(lruEntry[K, V]{key: k, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(lruEntry[K, V]).key)
		c.evictions++
	}
}

// Len returns the number of entries held.
func (c *lru[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the cache's counters and occupancy.
func (c *lru[K, V]) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: c.ll.Len(), Cap: c.cap}
}
