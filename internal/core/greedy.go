package core

import (
	"math"

	"dynalloc/internal/record"
)

// GreedyBucketing implements Algorithm 1 of the paper. Given the sorted
// entry range [lo, hi] it scans every candidate break point i, evaluates the
// expected resource waste of the two-bucket configuration {[lo,i], [i+1,hi]}
// (with i == hi encoding "keep a single bucket"), keeps the minimizing break,
// and recurses into both halves. A break falls between two entries, so records
// of equal value always share a bucket. Every range statistic is served from
// the record list's prefix sums, so each cost evaluation is O(1) and each
// scan is O(hi-lo).
type GreedyBucketing struct{}

// Name implements Algorithm.
func (GreedyBucketing) Name() string { return "greedy" }

// Partition implements Algorithm. The output buffer and the sweep's f,
// bound and block buffers live in the scratch, so a warm Partition is
// allocation-free.
func (GreedyBucketing) Partition(l *record.List, s *Scratch) []int {
	v := l.View()
	n := v.Len()
	if n == 0 {
		return nil
	}
	if s == nil {
		s = &Scratch{}
	}
	if cap(s.best) < 8 {
		s.best = make([]int, 0, 8)
	}
	// greedySplit needs hi-lo candidates plus one bound per started
	// superblock, and one entry per started block.
	if need := n + n/(sweepSuper*sweepBlock) + 1; len(s.f) < need {
		s.f = make([]float64, need+need/4)
	}
	if need := n/sweepBlock + 1; cap(s.blocks) < need {
		s.blocks = make([]int, 0, need+need/4)
	}
	s.best = greedySplit(v, 0, n-1, s, s.best[:0])
	return s.best
}

// sweepSlack bounds the sweep's filter: every break of [lo, hi] at which
// greedyCost attains its minimum has f within sweepSlack of the smallest f.
//
// Take the differences of the stored prefix sums as exact reals and write,
// for a break after i, s1 and s2 for the two buckets' significance, A1 and A2
// for their value·significance, T = s1+s2 and K = A1+A2 (both constant over
// the range). Then greedyCost expands to
//
//	cost(i) = f(i)/T² − K/T,   f(i) = T·s1·rep1 + rep2·s2·(T+s1)
//
// so the candidates' order under cost is their order under f, which needs no
// division and no PrefixValSig read. In floating point the two differ by
// rounding. With non-negative values every term of f is non-negative, so the
// computed f is within 6u·f ≤ 7.5u·T²·R of the real one (u = 2⁻⁵³, R = the
// range's largest value, f ≤ 1.25·T²·R). The computed cost is within
// 34u·(R + K/T) of the real one: its intermediate terms are p·p'·(rep − mean)
// with p·p'·rep ≤ R and p1·vLo = A1/T ≤ K/T, p2·vHi = A2/T ≤ K/T (prefix
// sums of non-negative terms are monotone). Hence a minimum of the computed
// cost has
//
//	f(i) ≤ min f + 2·(7.5+34)·u·T²·(R + K/T)  ≈  min f + 1e-14·T²·(R + K/T),
//
// and sweepEps leaves ~1000× room over that. The bound needs s1, s2 > 0 over
// the whole range, values ≥ 0, and no product of f overflowing or
// underflowing. The record list guarantees all of it for every range: each
// entry's significance is an integer ≥ 1 and each value an integer ≥ 0, and
// T, R and K/T are at most 2⁶³, so a product of f is 0, at least 1, or below
// 2¹⁹⁰. The prefix sums are exact; converting a difference of them to
// float64 rounds once, which the 6u above counts.
func sweepSlack(v record.View, lo, hi int) float64 {
	const sweepEps = 1e-11
	t := float64(v.PrefixSig[hi+1] - v.PrefixSig[lo])
	return sweepEps * t * t * (v.Values[hi] + v.WeightedMean(lo, hi))
}

// sweepBlock is the number of consecutive candidates greedySplit bounds and
// fills f over at once, and sweepSuper the number of blocks in a superblock,
// which it bounds before it bounds any of its blocks. On a bimodal list
// growing from 1 000 to 6 000 records (3 138 entries at the end),
// sweepSuper × sweepBlock = 8 × 8 partitions ~10 % faster than 16 × 8, and
// faster than 16 × 16, 8 × 16 and 32 × 8; at 10 000 records ~18 % faster
// than 16 × 8.
const (
	sweepBlock = 8
	sweepSuper = 8
)

// rangeSweep holds what the first pass reads of one range [lo, hi]; its
// candidate k (0 ≤ k < hi-lo) is the break after lo+k.
type rangeSweep struct {
	sigs          []int64   // PrefixSig[lo+1 : hi+1]: significance through each candidate
	vals          []float64 // Values[lo:hi]: each candidate's rep1
	sigLo         int64
	t, rep2       float64
	slack, margin float64 // sweepSlack(v, lo, hi), and bound's margin slack/100
}

func newRangeSweep(v record.View, lo, hi int) rangeSweep {
	sigLo, sigHi := v.PrefixSig[lo], v.PrefixSig[hi+1]
	slack := sweepSlack(v, lo, hi)
	return rangeSweep{
		sigs:   v.PrefixSig[lo+1 : hi+1],
		vals:   v.Values[lo:hi],
		sigLo:  sigLo,
		t:      float64(sigHi - sigLo),
		rep2:   v.Values[hi],
		slack:  slack,
		margin: slack / 100,
	}
}

// fill computes the division-free f (see sweepSlack) of block b's candidates
// into f[b·sweepBlock:] and returns the smallest.
func (s *rangeSweep) fill(f []float64, b int) float64 {
	a := b * sweepBlock
	dst := f[a:min(a+sweepBlock, len(f))]
	// Resliced so the compiler drops the per-candidate bounds checks.
	sigs, vals := s.sigs[a:][:len(dst)], s.vals[a:][:len(dst)]
	sigLo, t, rep2 := s.sigLo, s.t, s.rep2
	fmin := math.Inf(1)
	for k := range dst {
		s1 := float64(sigs[k] - sigLo)
		fi := t*(s1*vals[k]) + rep2*((t-s1)*(t+s1))
		dst[k] = fi
		if fi < fmin {
			fmin = fi
		}
	}
	return fmin
}

// bound returns a lower bound on the computed f of candidates a through e:
// the smaller of f's expression at a and at e, both with rep1 fixed at a's
// value, less a margin of slack/100. Values are ≥ 0, so in reals f is
// non-decreasing in rep1 and rep1 ≥ vals[a]
// throughout. With rep1 fixed, s2 = T − s1 makes f = T·s1·rep1 + R·(T² − s1²)
// (R = rep2, the range's largest value) concave in s1, so its minimum over
// the candidates lies at an end. The computed and the real f differ by at
// most 7.5u·T²·R (see sweepSlack), and so do the two ends' computed and real
// values; a margin of 15u·T²·R ≈ 1.7e-15·T²·R therefore makes the computed
// bound ≤ every computed f in [a, e], and slack/100 ≥ 1e-13·T²·R leaves ~60×
// room over it.
func (s *rangeSweep) bound(a, e int) float64 {
	rep1 := s.vals[a]
	fa, fe := s.at(s.sigs[a], rep1), s.at(s.sigs[e], rep1)
	if fe < fa {
		fa = fe
	}
	return fa - s.margin
}

// at evaluates f's expression at the candidate whose prefix entry is sig,
// with the given rep1.
func (s *rangeSweep) at(sig int64, rep1 float64) float64 {
	s1 := float64(sig - s.sigLo)
	return s.t*(s1*rep1) + s.rep2*((s.t-s1)*(s.t+s1))
}

// blockBounds writes the bound of each block of superblock sb into lbs and
// returns the blocks that exist, lbs[:n].
func (s *rangeSweep) blockBounds(lbs *[sweepSuper]float64, sb int) []float64 {
	a := sb * sweepSuper * sweepBlock
	n := min(sweepSuper, (len(s.sigs)-a+sweepBlock-1)/sweepBlock)
	for i := range n {
		lbs[i] = s.bound(a+i*sweepBlock, min(a+(i+1)*sweepBlock, len(s.sigs))-1)
	}
	return lbs[:n]
}

// seed writes each superblock's bound into sbs, and the bounds of the
// blocks of the superblock with the smallest bound into lbs, and returns the
// block with the smallest bound there: the block whose fill sets the first
// pass's first limit.
func (s *rangeSweep) seed(sbs []float64, lbs *[sweepSuper]float64) int {
	const superLen = sweepSuper * sweepBlock
	best := 0
	for sb := range sbs {
		sbs[sb] = s.bound(sb*superLen, min((sb+1)*superLen, len(s.sigs))-1)
		if sbs[sb] < sbs[best] {
			best = sb
		}
	}
	seed := 0
	for i, lb := range s.blockBounds(lbs, best) {
		if lb < lbs[seed] {
			seed = i
		}
	}
	return best*sweepSuper + seed
}

// sweep is greedySplit's first pass. It computes f into f on every block
// that can hold a candidate within the slack of the smallest f, appends
// those blocks to blocks in ascending order, and returns the smallest f and
// the extended blocks; sbs holds one bound per superblock of sweepSuper
// blocks. Where the range has at most two blocks it fills every block. Otherwise it fills the seed block, which sets limit =
// min f + slack, and then, walking the superblocks whose bound is ≤ limit,
// every block of them whose own bound is ≤ limit, lowering limit as the
// smallest f falls. A skipped superblock's or block's every f exceeds a
// limit that is ≥ the final min f + slack, so the smallest f and every
// candidate within the slack of it lie in the blocks returned.
func (s *rangeSweep) sweep(f, sbs []float64, blocks []int) (float64, []int) {
	nb := (len(f) + sweepBlock - 1) / sweepBlock
	fmin := math.Inf(1)
	if nb <= 2 {
		for b := range nb {
			if bmin := s.fill(f, b); bmin < fmin {
				fmin = bmin
			}
			blocks = append(blocks, b)
		}
		return fmin, blocks
	}
	var seedLbs, lbs [sweepSuper]float64
	seed := s.seed(sbs, &seedLbs)
	fmin = s.fill(f, seed)
	limit := fmin + s.slack
	for sb, sbound := range sbs {
		if sbound > limit {
			continue
		}
		sbLbs := seedLbs[:min(sweepSuper, nb-sb*sweepSuper)]
		if sb != seed/sweepSuper {
			sbLbs = s.blockBounds(&lbs, sb)
		}
		for i, lb := range sbLbs {
			b := sb*sweepSuper + i
			if b != seed {
				if lb > limit {
					continue
				}
				if bmin := s.fill(f, b); bmin < fmin {
					fmin, limit = bmin, bmin+s.slack
				}
			}
			blocks = append(blocks, b)
		}
	}
	return fmin, blocks
}

// greedySplit appends the bucket end indices for the entry range [lo, hi]
// to out and returns the extended slice. The candidate sweep makes two
// passes. The first (rangeSweep.sweep) computes each candidate's f, into
// s.f, only on the blocks of sweepBlock candidates that can hold one within
// the slack of the smallest f, and lists those blocks in s.blocks. The
// second evaluates greedyCost, in ascending order, on the listed blocks'
// candidates whose f is within the slack of the smallest. The break chosen
// is the one a sweep of greedyCost over every candidate would choose.
func greedySplit(v record.View, lo, hi int, s *Scratch, out []int) []int {
	if lo == hi {
		return append(out, hi)
	}
	sw := newRangeSweep(v, lo, hi)
	f := s.f[:hi-lo]
	sbs := s.f[len(f) : len(f)+(len(f)+sweepSuper*sweepBlock-1)/(sweepSuper*sweepBlock)]
	fmin, blocks := sw.sweep(f, sbs, s.blocks[:0])
	limit := fmin + sw.slack

	minCost := math.Inf(1)
	breakIdx := hi
	for _, b := range blocks {
		a := b * sweepBlock
		for k, fi := range f[a:min(a+sweepBlock, len(f))] {
			if fi > limit {
				continue
			}
			if cost := greedyCost(v, lo, lo+a+k, hi); cost < minCost {
				minCost = cost
				breakIdx = lo + a + k
			}
		}
	}
	// i == hi evaluates the single-bucket configuration last: a strict <
	// keeps earlier break points on ties.
	if greedyCost(v, lo, hi, hi) < minCost {
		breakIdx = hi
	}
	if breakIdx == hi {
		// A single bucket over [lo, hi] yields the minimum expected waste.
		return append(out, hi)
	}
	out = greedySplit(v, lo, breakIdx, s, out)
	out = greedySplit(v, breakIdx+1, hi, s, out)
	return out
}

// greedyCost is compute_greedy_cost of Algorithm 1: the expected resource
// waste of the next task under the two-bucket configuration obtained by
// breaking the entry range [lo, hi] after entry i. The four cases of
// Section IV-B are:
//
//	task in B1, choose B1: p1^2 * (rep1 - v_lo)
//	task in B1, choose B2: p1*p2 * (rep2 - v_lo)
//	task in B2, choose B1: p2*p1 * (rep1 + rep2 - v_hi)   (failed, retried)
//	task in B2, choose B2: p2^2 * (rep2 - v_hi)
//
// where v_lo and v_hi are the significance-weighted mean values of the
// respective buckets. i == hi evaluates the single-bucket configuration,
// whose expected waste is rep - v_mean. greedySplit calls it on the candidates
// its filter keeps, and the tests' reference recursion on every candidate.
func greedyCost(v record.View, lo, i, hi int) float64 {
	if i == hi {
		return v.Value(hi) - v.WeightedMean(lo, hi)
	}
	s1 := v.SigSum(lo, i)
	s2 := v.SigSum(i+1, hi)
	total := s1 + s2 // ≥ 2: every entry's significance is at least 1
	p1 := s1 / total
	p2 := s2 / total
	rep1 := v.Value(i)
	rep2 := v.Value(hi)
	vLo := v.WeightedMean(lo, i)
	vHi := v.WeightedMean(i+1, hi)
	return p1*p1*(rep1-vLo) +
		p1*p2*(rep2-vLo) +
		p2*p1*(rep1+rep2-vHi) +
		p2*p2*(rep2-vHi)
}
