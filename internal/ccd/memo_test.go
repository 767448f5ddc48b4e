package ccd

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/editdist"
)

// widen repeats every chunk of fp between separators until it is over 64
// bytes long, so that two widened subs meet in the row DP, the kernel taken
// only when both strings exceed a machine word.
func widen(fp []byte) []byte {
	var out []byte
	start := 0
	for i := 0; i <= len(fp); i++ {
		if i == len(fp) || fp[i] == FuncSep || fp[i] == ContractSep {
			if chunk := fp[start:i]; len(chunk) > 0 {
				out = append(out, bytes.Repeat(chunk, 64/len(chunk)+1)...)
			}
			if i < len(fp) {
				out = append(out, fp[i])
			}
			start = i + 1
		}
	}
	return out
}

// reversed is fp with its function chunks in the opposite order: the same
// subs, met in another order by Algorithm 1's inner loop.
func reversed(fp []byte) []byte {
	chunks := bytes.Split(fp, []byte{FuncSep})
	for i, j := 0, len(chunks)-1; i < j; i, j = i+1, j-1 {
		chunks[i], chunks[j] = chunks[j], chunks[i]
	}
	return bytes.Join(chunks, []byte{FuncSep})
}

// FuzzMatchMemo: the memo a MatchBuffer keeps for one query's sub pairs
// changes no answer. The input's lines are fingerprints; each is indexed as
// given, with its function chunks reversed (the same subs again, so the
// dictionary repeats them and a pair meets a different best-so-far), and
// widened past 64 bytes. Two different queries, the first line and a
// widened last line joined to a middle one, run one after the other through
// one warm buffer at k = 0, 1 and 3 and an ε from the input; each answer and
// its counts must equal a fresh buffer's, and the answer the brute-force
// reference on exactSimilarity gives. The first seed is the case where a
// pair first fails against a raised best ("exceeds b") and must be run again
// when a later candidate meets it with a lower one.
func FuzzMatchMemo(f *testing.F) {
	f.Add([]byte("abcdefghijklmnopqrst\nabcdefghijklmnopYYYY.XXXXXXXXijklmnopqrst\nXXXXXXXXijklmnopqrst"), uint8(50))
	f.Add([]byte("QxRtYuIoPAbCdEfGh.ZxCvBnMQwErTy\nQxRtYuIoPAbCdEfGh.MmMmMmMmMm\nZxCvBnMQwErTz:QxRtYuIoPAbCdEfGh\nMmMmMmMmMm"), uint8(70))
	f.Add([]byte("abcdefg.abcdefh.abcdefi\nabcdefh.xyzxyzx\nabcdefi\nab.cd"), uint8(0))
	f.Add([]byte("0123456789abcdefghij0123456789abcdefghij0123456789abcdefghij0123456789.abc\n0123456789abcdefghij0123456789abcdefghij0123456789abcdefghij012345678X\nabc"), uint8(90))

	f.Fuzz(func(t *testing.T, data []byte, eps uint8) {
		if len(data) > 1<<11 {
			t.Skip("oversized input")
		}
		lines := bytes.Split(data, []byte{'\n'})
		if len(lines) > 16 {
			lines = lines[:16]
		}
		cfg := Config{N: 3, Eta: 0, Epsilon: float64(eps % 101)}
		c := NewCorpus(cfg)
		for i, line := range lines {
			c.Add(fmt.Sprintf("l%02d", i), Fingerprint(line))
		}
		for i, line := range lines {
			c.Add(fmt.Sprintf("r%02d", i), Fingerprint(reversed(line)))
			c.Add(fmt.Sprintf("w%02d", i), Fingerprint(widen(line)))
		}
		c.BuildSignatures()
		queries := []Fingerprint{
			Fingerprint(lines[0]),
			Fingerprint(append(widen(lines[len(lines)-1]), append([]byte{FuncSep}, lines[len(lines)/2]...)...)),
		}
		var warm MatchBuffer
		var col TopK
		for _, k := range []int{0, 1, 3} {
			for qi, fp := range queries {
				q := PrepareQuery(cfg, fp)
				got, st := matchBuf(c, q, k, &col, &warm, nil)
				var fresh MatchBuffer
				want, wst := matchBuf(c, q, k, &col, &fresh, nil)
				st.FilterNs, st.ScoreNs, wst.FilterNs, wst.ScoreNs = 0, 0, 0, 0
				if !matchesEqual(got, want) || st != wst {
					t.Fatalf("k=%d query %d: warm buffer %v %+v, fresh %v %+v", k, qi, got, st, want, wst)
				}
				ref := referenceMatches(c, fp)
				if k > 0 {
					ref = ref[:min(k, len(ref))]
				}
				if !matchesEqual(got, ref) {
					t.Fatalf("k=%d query %d: %v, reference %v", k, qi, got, ref)
				}
			}
		}
	})
}

// TestMatchMemoRerunsExceededCell walks one memo through the case that makes
// "exceeds b" a bound and not a verdict. Query q is one sub; candidate A
// holds a1 (δ 80 to q) before s (δ 60), so s is tried against best 80 and
// its cell records only that its distance exceeds 4. Candidate B holds s
// alone, tried against ε = 50: the memo must run the pair again, find the
// exact distance 8 and keep it.
func TestMatchMemoRerunsExceededCell(t *testing.T) {
	const (
		q  = "abcdefghijklmnopqrst"
		a1 = "abcdefghijklmnopYYYY"
		s  = "XXXXXXXXijklmnopqrst"
	)
	c := NewCorpus(Config{N: 3, Eta: 0.5, Epsilon: 50})
	c.Add("A", a1+"."+s)
	c.Add("B", s)
	sid := c.dict.of(1)[0]

	var memo subMemo
	var ed editdist.Scratch
	memo.reset(len(c.dict.subs), 1)
	qsubs := []string{q}
	cand := func(i int) (float64, bool) {
		e := c.entries[i]
		ids := c.dict.of(i)
		return similarityAtLeast(qsubs, q, c.dict.appendSubs(nil, ids), ids, e.FP, 50, &ed, &memo)
	}
	scoreA, scoreB := exactSimilarity(q, c.entries[0].FP), exactSimilarity(q, s)
	if score, ok := cand(0); !ok || score != scoreA {
		t.Fatalf("A: %v %v, want %v true", score, ok, scoreA)
	}
	if cell := memo.cells[memo.row[sid]]; cell != ^int32(5) {
		t.Fatalf("cell (q, s) after A = %d, want ^5 (distance exceeds 4)", cell)
	}
	if score, ok := cand(1); !ok || score != scoreB {
		t.Fatalf("B: %v %v, want %v true", score, ok, scoreB)
	}
	if cell := memo.cells[memo.row[sid]]; cell != 8 {
		t.Fatalf("cell (q, s) after B = %d, want the exact distance 8", cell)
	}
	// The same through MatchInto: A is the better candidate, so it is
	// scored first, and B must still be found.
	got := c.MatchTopK(q, 0)
	want := []Match{{ID: "A", Score: scoreA}, {ID: "B", Score: scoreB}}
	if !matchesEqual(got, want) {
		t.Fatalf("MatchTopK = %v, want %v", got, want)
	}
}

// TestMatchMemoCellsCapped: a query of many subs against a segment of many
// distinct subs would need a row of cells per sub id it touches; past
// maxMemoCells the memo stops taking rows and answers as DistanceBounded
// does, so its slab stays within the cap.
func TestMatchMemoCellsCapped(t *testing.T) {
	const nq, ids = 1000, 2000 // 2 M cells uncapped
	var memo subMemo
	var ed editdist.Scratch
	memo.reset(ids, nq)
	for id := 0; id < ids; id++ {
		a, b := fmt.Sprintf("sub-%05d", id), fmt.Sprintf("sub-%05d", id*7)
		if got, want := memo.distance(&ed, uint32(id), id%nq, a, b, 3), ed.DistanceBounded(a, b, 3); got > 3 != (want > 3) || (got <= 3 && got != want) {
			t.Fatalf("id %d: memo %d, DistanceBounded %d", id, got, want)
		}
	}
	if len(memo.cells) > maxMemoCells {
		t.Fatalf("%d cells, cap %d", len(memo.cells), maxMemoCells)
	}
	if len(memo.cells) != maxMemoCells/nq*nq {
		t.Fatalf("%d cells, want every row that fits the cap: %d", len(memo.cells), maxMemoCells/nq*nq)
	}
}
