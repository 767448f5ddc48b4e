package ccd

import (
	"slices"

	"repro/internal/editdist"
)

// subDict stores a corpus's match subs once each. A corpus is mostly clone
// families, so most of its subs repeat: each distinct sub is one string
// aliasing the entry fingerprint it was first seen in, and every entry keeps
// the ids of its subs in fingerprint order, entry i's at ids[end[i-1]:end[i]]
// (from 0 for the first entry). Scoring a candidate reads its ids instead of
// re-splitting its fingerprint, and the match memo (subMemo) remembers a
// distance per id, so a sub shared by many candidates is scored once per
// query. The dictionary is derived on the heap wherever a corpus comes to
// exist, so it is not part of the snapshot format.
type subDict struct {
	subs []string
	ids  []uint32
	end  []uint32
	// index finds the id of a sub while entries are added. Only a corpus
	// being built holds it: add makes it on first use, and a corpus that is
	// complete (BuildSignatures, Merge, WithoutIDs, a snapshot open) drops it.
	index map[string]uint32
}

// add appends the ids of the next entry's match subs, interning any sub not
// seen before.
func (d *subDict) add(fp Fingerprint) {
	if d.index == nil {
		d.index = make(map[string]uint32, len(d.subs))
		for id, s := range d.subs {
			d.index[s] = uint32(id)
		}
	}
	var buf [64]uint32
	spans := appendMatchSpans(buf[:0], fp)
	for i := 0; i+1 < len(spans); i += 2 {
		d.ids = append(d.ids, d.intern(string(fp[spans[i]:spans[i+1]])))
	}
	d.end = append(d.end, uint32(len(d.ids)))
}

// intern returns the id of s, adding it when new.
func (d *subDict) intern(s string) uint32 {
	if id, ok := d.index[s]; ok {
		return id
	}
	id := uint32(len(d.subs))
	d.subs = append(d.subs, s)
	d.index[s] = id
	return id
}

// of returns entry i's sub ids.
func (d *subDict) of(i int) []uint32 {
	lo := uint32(0)
	if i > 0 {
		lo = d.end[i-1]
	}
	return d.ids[lo:d.end[i]]
}

// appendSubs appends the subs that ids name to dst.
func (d *subDict) appendSubs(dst []string, ids []uint32) []string {
	for _, id := range ids {
		dst = append(dst, d.subs[id])
	}
	return dst
}

// mergeDicts is the dictionary of parts' entries in order. Each part's ids
// turn into merged ids through a lookup array, filled the first time an
// entry uses the id, so the map is touched once per distinct sub a part's
// entries use, and subs no entry uses any more are left behind.
func mergeDicts(parts []*Corpus) subDict {
	n, ids, hint := 0, 0, 0
	for _, p := range parts {
		n, ids, hint = n+len(p.dict.end), ids+len(p.dict.ids), max(hint, len(p.dict.subs))
	}
	d := subDict{
		ids:   make([]uint32, 0, ids),
		end:   make([]uint32, 0, n),
		index: make(map[string]uint32, hint),
	}
	const unset = ^uint32(0)
	var remap []uint32
	for _, p := range parts {
		remap = slices.Grow(remap[:0], len(p.dict.subs))[:len(p.dict.subs)]
		for i := range remap {
			remap[i] = unset
		}
		base := uint32(len(d.ids))
		for _, id := range p.dict.ids {
			if remap[id] == unset {
				remap[id] = d.intern(p.dict.subs[id])
			}
			d.ids = append(d.ids, remap[id])
		}
		for _, e := range p.dict.end {
			d.end = append(d.end, base+e)
		}
	}
	d.index = nil
	return d
}

// without is the dictionary of the entries drop does not mark. It keeps the
// distinct subs it was derived from (clipped, so an Add on either corpus
// cannot write into the other's), and with them any sub no survivor uses.
func (d *subDict) without(drop []bool) subDict {
	out := subDict{subs: slices.Clip(d.subs)}
	for i, dead := range drop {
		if !dead {
			out.ids = append(out.ids, d.of(i)...)
			out.end = append(out.end, uint32(len(out.ids)))
		}
	}
	return out
}

// maxMemoCells caps the cells one match buffer's memo holds (4 MiB). A row
// costs a cell per query sub, so only a query with very many subs against a
// segment with very many distinct subs reaches it; the pairs past it are
// scored without being remembered, as if there were no memo.
const maxMemoCells = 1 << 20

// subMemo remembers what the edit-distance kernel found for each (query sub,
// candidate sub id) pair during one MatchInto, so Algorithm 1 runs the
// kernel at most once per pair and bound in a segment. A sub id gets a row
// the first time one of its pairs passes the length test, holding one cell
// per query sub; rows are cut from one reused slab and stamped with the
// pass's generation, so a new pass forgets every row by bumping gen, and a
// warm memo allocates nothing. A cell holds the exact distance (≥ 0), or ^lb
// for a distance known to be at least lb: ^0 means nothing is known yet.
type subMemo struct {
	gen   uint32
	stamp []uint32 // id's row is live when stamp[id] == gen
	row   []uint32 // id's first cell in cells (below maxMemoCells)
	cells []int32
	nq    int
}

// reset forgets every row before a pass over a segment of ids distinct subs
// by a query of nq subs.
func (m *subMemo) reset(ids, nq int) {
	m.gen++
	if m.gen == 0 { // wrapped: a stale stamp could read as live
		clear(m.stamp)
		m.gen = 1
	}
	if len(m.stamp) < ids {
		m.stamp = slices.Grow(m.stamp, ids-len(m.stamp))[:ids]
		m.row = slices.Grow(m.row, ids-len(m.row))[:ids]
	}
	m.cells = m.cells[:0]
	m.nq = nq
}

// distance returns the edit distance of query sub qi (s1) and candidate sub
// id (s2) when it is at most maxDist, and a number above maxDist otherwise —
// DistanceBounded's answer, from the memo when the memo can give it.
func (m *subMemo) distance(ed *editdist.Scratch, id uint32, qi int, s1, s2 string, maxDist int) int {
	if m.stamp[id] != m.gen {
		if len(m.cells)+m.nq > maxMemoCells {
			return ed.DistanceBounded(s1, s2, maxDist)
		}
		m.stamp[id] = m.gen
		m.row[id] = uint32(len(m.cells))
		m.cells = slices.Grow(m.cells, m.nq)
		for range m.nq {
			m.cells = append(m.cells, ^0)
		}
	}
	cell := &m.cells[int(m.row[id])+qi]
	if *cell >= 0 {
		return int(*cell)
	}
	if lb := int(^*cell); maxDist < lb {
		return lb
	}
	d := ed.DistanceBounded(s1, s2, maxDist)
	if d <= maxDist {
		*cell = int32(d)
	} else {
		// A distance above maxDist is only reported when maxDist is below
		// the longer length, so maxDist+1 fits the cell.
		*cell = ^int32(maxDist + 1)
	}
	return d
}
