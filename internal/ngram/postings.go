package ngram

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Posting lists are block-compressed: doc numbers are grouped into blocks of
// blockSize ids, each block stored as varint deltas with an 8-byte skip entry
// (first doc number + byte offset into the delta stream, both uint32 LE).
// The first id of a block lives only in its skip entry, so a block's delta
// stream holds blockLen−1 varints and every block decodes independently —
// the seek path binary-searches the skip table and decodes exactly one block
// instead of stepping ints from the start of the list.
//
// While an index is being built, the trailing <blockSize ids live in an
// uncompressed tail; a full tail seals into a block. Indexes opened zero-copy
// from snapshot bytes (FromBytes) have no tail — their final block may be
// partial — and are sealed: Add panics.

// skipEntryBytes is the encoded size of one skip-table entry.
const skipEntryBytes = 8

// writeBlockSize is the posting-block size of every index this package
// builds (New, Splice). seekFactor and the dense-bitmap rule were tuned at it.
// Readers accept any size in [1, 65536] that a codec header records.
const writeBlockSize = 128

// postings is one gram's block-compressed posting list.
type postings struct {
	count int      // total doc numbers in the list
	data  []byte   // concatenated per-block delta streams
	skips []byte   // skipEntryBytes per sealed block: first id, data offset
	tail  []uint32 // unsealed suffix (building only; nil for sealed lists)
	last  uint32   // doc number of the latest add (building only)
	bits  []uint64 // membership bitmap of one bit per index doc (dense lists only; see denseList)
}

// denseList is the rule for which posting lists also carry a membership
// bitmap: at least one full block, and postings for an eighth or more of the
// index's docCount documents. Under it a bitmap is never larger than the
// encoded list it shadows: each block's first id takes its 8-byte skip entry
// and every other id at least one delta byte, so the list holds at least
// count+7 bytes, while the bitmap's 8·⌈docCount/64⌉ ≤ 8·⌈count/8⌉ bytes are
// at most count+7. The small delta segments of a live service never reach it.
func denseList(count, blockSize, docCount int) bool {
	return count >= blockSize && 8*count >= docCount
}

// newBitmap returns a zeroed membership bitmap for docCount documents.
func newBitmap(docCount int) []uint64 { return make([]uint64, (docCount+63)/64) }

// sealedBlocks returns the number of blocks present in skips.
func (p *postings) sealedBlocks() int { return len(p.skips) / skipEntryBytes }

// totalBlocks counts sealed blocks plus the tail (as a virtual final block).
func (p *postings) totalBlocks() int {
	n := p.sealedBlocks()
	if len(p.tail) > 0 {
		n++
	}
	return n
}

// blockLen returns the number of ids in block i: blockSize for all but the
// last block, which holds the remainder (the tail while building, or a
// partial final block in the encoded form).
func (p *postings) blockLen(i, blockSize int) int {
	if i == p.totalBlocks()-1 {
		return p.count - i*blockSize
	}
	return blockSize
}

// skipFirst returns the first doc number of sealed block i.
func (p *postings) skipFirst(i int) uint32 {
	return binary.LittleEndian.Uint32(p.skips[i*skipEntryBytes:])
}

// skipOff returns the data offset of sealed block i's delta stream.
func (p *postings) skipOff(i int) uint32 {
	return binary.LittleEndian.Uint32(p.skips[i*skipEntryBytes+4:])
}

// blockFirst returns the first doc number of block i (sealed or tail).
func (p *postings) blockFirst(i int) uint32 {
	if i < p.sealedBlocks() {
		return p.skipFirst(i)
	}
	return p.tail[0]
}

// blockEnd returns the end offset of sealed block i's delta stream.
func (p *postings) blockEnd(i int) int {
	if i+1 < p.sealedBlocks() {
		return int(p.skipOff(i + 1))
	}
	return len(p.data)
}

// add appends a doc number (strictly greater than all previous — Add assigns
// increasing numbers) and seals a full tail into a compressed block.
func (p *postings) add(id uint32, blockSize int) {
	p.tail = append(p.tail, id)
	p.last = id
	p.count++
	if len(p.tail) >= blockSize {
		p.seal()
	}
}

// seal compresses the tail into one block: a skip entry plus the varint
// deltas of every id after the first.
func (p *postings) seal() {
	var sk [skipEntryBytes]byte
	binary.LittleEndian.PutUint32(sk[0:4], p.tail[0])
	binary.LittleEndian.PutUint32(sk[4:8], uint32(len(p.data)))
	p.skips = append(p.skips, sk[:]...)
	var buf [binary.MaxVarintLen32]byte
	prev := p.tail[0]
	for _, id := range p.tail[1:] {
		n := binary.PutUvarint(buf[:], uint64(id-prev))
		p.data = append(p.data, buf[:n]...)
		prev = id
	}
	p.tail = p.tail[:0]
}

// decodeBlock decodes block i into dst (which must hold blockSize ids) and
// returns the number of ids written. Encoded input is validated once at
// load time (parsePostings), so the hot path decodes without error returns;
// the w<=0 guard still stops short on impossible varints instead of looping.
func (p *postings) decodeBlock(i, blockSize int, dst []uint32) int {
	if i >= p.sealedBlocks() {
		return copy(dst, p.tail)
	}
	n := p.blockLen(i, blockSize)
	v := p.skipFirst(i)
	dst[0] = v
	b := p.data[p.skipOff(i):p.blockEnd(i)]
	if len(b) == n-1 {
		// Every delta is a single byte (each varint takes at least one), the
		// common case for a gram most documents hold: no varint decoding.
		dst = dst[1:n]
		for j, d := range b {
			v += uint32(d)
			dst[j] = v
		}
		return n
	}
	for j := 1; j < n; j++ {
		d, w := binary.Uvarint(b)
		if w <= 0 {
			return j
		}
		b = b[w:]
		v += uint32(d)
		dst[j] = v
	}
	return n
}

// appendAll decodes the whole list into dst (test/reference helper and the
// v1-codec writer's source of truth).
func (p *postings) appendAll(dst []uint32, blockSize int) []uint32 {
	buf := make([]uint32, blockSize)
	for i := 0; i < p.totalBlocks(); i++ {
		n := p.decodeBlock(i, blockSize, buf)
		dst = append(dst, buf[:n]...)
	}
	return dst
}

// encodedPostings returns the fully sealed encoding of p: the builder's
// sealed blocks plus the tail compressed as a final (possibly partial)
// block. p itself is not mutated. The encoding is canonical — any list of
// ids encodes to exactly one byte sequence for a given block size.
func encodedPostings(p *postings) (skips, data []byte) {
	if len(p.tail) == 0 {
		return p.skips, p.data
	}
	skips = make([]byte, 0, len(p.skips)+skipEntryBytes)
	skips = append(skips, p.skips...)
	var sk [skipEntryBytes]byte
	binary.LittleEndian.PutUint32(sk[0:4], p.tail[0])
	binary.LittleEndian.PutUint32(sk[4:8], uint32(len(p.data)))
	skips = append(skips, sk[:]...)

	var buf [binary.MaxVarintLen32]byte
	data = make([]byte, 0, len(p.data)+2*len(p.tail))
	data = append(data, p.data...)
	prev := p.tail[0]
	for _, id := range p.tail[1:] {
		n := binary.PutUvarint(buf[:], uint64(id-prev))
		data = append(data, buf[:n]...)
		prev = id
	}
	return skips, data
}

// parsePostings validates an encoded posting list (count ids under blockSize,
// docs all below docCount) and returns it as a sealed postings value whose
// data/skips alias the input slices. Every block is decoded once here —
// strictly increasing ids, in-range docs, delta streams that exactly fill
// their byte ranges — so cursors can decode later without error paths and
// without ever reading past a block's slice.
func parsePostings(count uint64, blockSize int, skips, data []byte, docCount int) (*postings, error) {
	if count == 0 {
		if len(skips) != 0 || len(data) != 0 {
			return nil, fmt.Errorf("ngram: empty posting list with %d skip / %d data bytes", len(skips), len(data))
		}
		return &postings{}, nil
	}
	if count > uint64(docCount) {
		return nil, fmt.Errorf("ngram: posting count %d exceeds doc count %d", count, docCount)
	}
	blocks := (int(count) + blockSize - 1) / blockSize
	if len(skips) != blocks*skipEntryBytes {
		return nil, fmt.Errorf("ngram: posting list of %d ids wants %d skip entries, has %d bytes", count, blocks, len(skips))
	}
	p := &postings{count: int(count), data: data, skips: skips}
	if denseList(int(count), blockSize, docCount) && len(data) >= int(count)-blocks {
		// The bitmap rides this validation pass. The length check (one delta
		// byte per non-first id, which validation below demands anyway)
		// bounds the allocation by the input's own bytes.
		p.bits = newBitmap(docCount)
	}
	prev := int64(-1) // last doc of the previous block
	for i := 0; i < blocks; i++ {
		off := int(p.skipOff(i))
		end := p.blockEnd(i)
		if i == 0 && off != 0 {
			return nil, fmt.Errorf("ngram: first block at offset %d, want 0", off)
		}
		if off > end || end > len(data) {
			return nil, fmt.Errorf("ngram: block %d byte range [%d,%d) out of bounds", i, off, end)
		}
		v := int64(p.skipFirst(i))
		if v <= prev {
			return nil, fmt.Errorf("ngram: block %d starts at doc %d, not above previous doc %d", i, v, prev)
		}
		p.mark(v, docCount)
		b := data[off:end]
		for j := 1; j < p.blockLen(i, blockSize); j++ {
			d, w := binary.Uvarint(b)
			if w <= 0 {
				return nil, fmt.Errorf("ngram: block %d: bad varint delta", i)
			}
			if d == 0 {
				return nil, fmt.Errorf("ngram: block %d: zero delta (non-increasing posting list)", i)
			}
			if d > math.MaxUint32 {
				// decodeBlock accumulates in uint32; a wider delta would
				// silently truncate at query time.
				return nil, fmt.Errorf("ngram: block %d: delta %d exceeds uint32", i, d)
			}
			if w > 1 && b[w-1] == 0 {
				// A minimal uvarint never ends in a zero byte (the last byte
				// carries the most significant bits). Rejecting over-long
				// encodings keeps the format canonical: one byte sequence per
				// id list, so encode∘decode is a byte-level fixpoint.
				return nil, fmt.Errorf("ngram: block %d: non-minimal varint delta", i)
			}
			b = b[w:]
			v += int64(d)
			p.mark(v, docCount)
		}
		if len(b) != 0 {
			return nil, fmt.Errorf("ngram: block %d: %d trailing bytes after %d deltas", i, len(b), p.blockLen(i, blockSize)-1)
		}
		if v >= int64(docCount) {
			return nil, fmt.Errorf("ngram: posting doc %d out of range (%d docs)", v, docCount)
		}
		prev = v
	}
	return p, nil
}

// mark sets doc v in p's bitmap, if p has one. An id out of range is left
// unmarked: while parsePostings decodes, validation refuses its block.
func (p *postings) mark(v int64, docCount int) {
	if p.bits != nil && v < int64(docCount) {
		p.bits[v>>6] |= 1 << (v & 63)
	}
}

// unseal converts a parsed (fully sealed) posting list back to builder form:
// a partial final block moves into the uncompressed tail so add can continue
// appending. Lists whose final block is full are already in builder form.
func (p *postings) unseal(blockSize int) {
	blocks := p.sealedBlocks()
	if blocks == 0 || p.count%blockSize == 0 {
		return
	}
	last := blocks - 1
	n := p.blockLen(last, blockSize)
	buf := make([]uint32, blockSize)
	p.decodeBlock(last, blockSize, buf)
	// Clone before truncating: data/skips may alias caller-owned bytes.
	p.data = append([]byte(nil), p.data[:p.skipOff(last)]...)
	p.skips = append([]byte(nil), p.skips[:last*skipEntryBytes]...)
	p.tail = append(p.tail, buf[:n]...)
}

// cursor seeks forward through one posting list, decoding a block at a time
// into a scratch buffer and jumping whole blocks via the skip table.
type cursor struct {
	p         *postings
	buf       []uint32 // decoded current block (the caller's scratch)
	blockSize int
	blocks    int
	blk       int // current block index
	bi        int // next unread position in buf (cur == buf[bi-1])
	bn        int // decoded ids in buf
	cur       uint32
	valid     bool
}

// init points the cursor at the first id of p. buf must hold blockSize ids.
func (c *cursor) init(p *postings, buf []uint32, blockSize int) {
	*c = cursor{p: p, buf: buf, blockSize: blockSize, blocks: p.totalBlocks()}
	if p.count > 0 {
		c.bn = p.decodeBlock(0, blockSize, buf)
		c.cur, c.bi, c.valid = buf[0], 1, true
	}
}

// seekGE advances to the first id ≥ doc (never backwards). When the target
// lies beyond the current block it binary-searches the skip table and decodes
// only the block that can contain doc — the whole-block skip that replaces
// the seed's int-by-int gallop.
func (c *cursor) seekGE(doc uint32) {
	if !c.valid || c.cur >= doc {
		return
	}
	lo := c.bi // ids before bi are < doc (cur == buf[bi-1] < doc)
	if c.blk+1 < c.blocks && c.p.blockFirst(c.blk+1) <= doc {
		// Jump: find the last block whose first id is ≤ doc.
		l, h := c.blk+1, c.blocks-1
		for l < h {
			mid := int(uint(l+h+1) >> 1)
			if c.p.blockFirst(mid) <= doc {
				l = mid
			} else {
				h = mid - 1
			}
		}
		c.blk = l
		c.bn = c.p.decodeBlock(l, c.blockSize, c.buf)
		lo = 0
	}
	// Binary search the decoded block for the first id ≥ doc.
	hi := c.bn
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.buf[mid] < doc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.bn {
		c.cur = c.buf[lo]
		c.bi = lo + 1
		return
	}
	// Block exhausted: the next block's first id (if any) is > doc.
	c.blk++
	if c.blk >= c.blocks {
		c.valid = false
		return
	}
	c.bn = c.p.decodeBlock(c.blk, c.blockSize, c.buf)
	c.cur = c.buf[0]
	c.bi = 1
}
