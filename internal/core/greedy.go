package core

import (
	"math"

	"dynalloc/internal/record"
)

// GreedyBucketing implements Algorithm 1 of the paper. Given the sorted
// record range [lo, hi] it scans every candidate break point i, evaluates the
// expected resource waste of the two-bucket configuration {[lo,i], [i+1,hi]}
// (with i == hi encoding "keep a single bucket"), keeps the minimizing break,
// and recurses into both halves. Every range statistic is served from the
// record list's prefix sums, so each cost evaluation is O(1) and each scan is
// O(hi-lo).
type GreedyBucketing struct{}

// Name implements Algorithm.
func (GreedyBucketing) Name() string { return "greedy" }

// Partition implements Algorithm. The output buffer and the sweep's filter
// and bound buffer live in the scratch, so a warm Partition is
// allocation-free.
func (GreedyBucketing) Partition(l *record.List, s *Scratch) []int {
	n := l.Len()
	if n == 0 {
		return nil
	}
	if s == nil {
		s = &Scratch{}
	}
	if cap(s.best) < 8 {
		s.best = make([]int, 0, 8)
	}
	// greedySplit needs hi-lo candidates plus one bound per started block.
	if need := n + n/sweepBlock; len(s.f) < need {
		s.f = make([]float64, need+need/4)
	}
	s.best = greedySplit(l.View(), 0, n-1, s.f, s.best[:0])
	return s.best
}

// sweepSlack bounds the sweep's filter: every break of [lo, hi] at which
// greedyCost attains its minimum has f within sweepSlack of the smallest f.
// It is +Inf (every candidate must be costed) where the bound below does not
// hold.
//
// Take the stored prefix sums as exact reals and write, for a break after i,
// s1 and s2 for the two buckets' significance, A1 and A2 for their
// value·significance, T = s1+s2 and K = A1+A2 (both constant over the
// range). Then greedyCost expands to
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
// the whole range (they are monotone in i, so the two ends decide), values
// ≥ 0, and T, R, K/T inside [sweepMin, sweepMax] so that no product
// overflows and underflow errors (≤ 2⁻¹⁰⁷⁴·(T+R+2) in f) vanish in that room.
func sweepSlack(v record.View, lo, hi int) float64 {
	const (
		sweepEps = 1e-11
		sweepMin = 1e-100
		sweepMax = 1e100
	)
	sigLo, sigHi := v.PrefixSig[lo], v.PrefixSig[hi+1]
	t, r, mean := sigHi-sigLo, v.Values[hi], v.WeightedMean(lo, hi)
	if v.Values[lo] >= 0 && v.PrefixSig[lo+1] > sigLo && sigHi > v.PrefixSig[hi] &&
		t >= sweepMin && t <= sweepMax && r >= sweepMin && r <= sweepMax && mean <= sweepMax {
		return sweepEps * t * t * (r + mean)
	}
	return math.Inf(1)
}

// sweepBlock is the number of consecutive candidates greedySplit's first
// pass bounds f over at once (8 and 32 measured slower).
const sweepBlock = 16

// rangeSweep holds what the first pass reads of one range [lo, hi]; its
// candidate k (0 ≤ k < hi-lo) is the break after lo+k.
type rangeSweep struct {
	sigs                  []float64 // PrefixSig[lo+1 : hi+1]: significance through each candidate
	vals                  []float64 // Values[lo:hi]: each candidate's rep1
	sigLo, sigHi, t, rep2 float64
}

func newRangeSweep(v record.View, lo, hi int) rangeSweep {
	sigLo, sigHi := v.PrefixSig[lo], v.PrefixSig[hi+1]
	return rangeSweep{
		sigs:  v.PrefixSig[lo+1 : hi+1],
		vals:  v.Values[lo:hi],
		sigLo: sigLo,
		sigHi: sigHi,
		t:     sigHi - sigLo,
		rep2:  v.Values[hi],
	}
}

// fill computes the division-free f (see sweepSlack) of block b's candidates
// into f[b·sweepBlock:] and returns the smallest (+Inf when every f is NaN).
func (s *rangeSweep) fill(f []float64, b int) float64 {
	a := b * sweepBlock
	dst := f[a:min(a+sweepBlock, len(f))]
	// Resliced so the compiler drops the per-candidate bounds checks.
	sigs, vals := s.sigs[a:][:len(dst)], s.vals[a:][:len(dst)]
	sigLo, sigHi, t, rep2 := s.sigLo, s.sigHi, s.t, s.rep2
	fmin := math.Inf(1)
	for k := range dst {
		s1 := sigs[k] - sigLo
		s2 := sigHi - sigs[k]
		fi := t*(s1*vals[k]) + rep2*(s2*(t+s1))
		dst[k] = fi
		if fi < fmin {
			fmin = fi
		}
	}
	return fmin
}

// bounds writes the bound of each block into lbs (one per sweepBlock
// candidates, the last block possibly shorter) and returns the index of the
// smallest.
func (s *rangeSweep) bounds(lbs []float64) (smallest int) {
	m, lbMin := len(s.sigs), math.Inf(1)
	for b := range lbs {
		a := b * sweepBlock
		lb := s.bound(a, min(a+sweepBlock, m)-1)
		lbs[b] = lb
		if lb < lbMin {
			lbMin, smallest = lb, b
		}
	}
	return smallest
}

// bound returns f's expression evaluated with s1 and rep1 at candidate a and
// s2 at candidate e. Where sweepSlack is finite, values are ≥ 0 and the
// prefix sums are monotone, so s1, rep1 and T+s1 are non-decreasing over
// [a, e], s2 is non-increasing, and every operand is ≥ 0; rounded + and × are
// monotone in non-negative operands, so the computed bound is ≤ every
// computed f in [a, e] — exactly, with no margin.
func (s *rangeSweep) bound(a, e int) float64 {
	s1 := s.sigs[a] - s.sigLo
	s2 := s.sigHi - s.sigs[e]
	return s.t*(s1*s.vals[a]) + s.rep2*(s2*(s.t+s1))
}

// greedySplit appends the bucket end indices for the sorted range [lo, hi]
// to out and returns the extended slice. The candidate sweep makes two
// passes over blocks of sweepBlock candidates, with buf (len ≥ hi-lo plus one
// per block) holding each candidate's f and each block's bound. The first
// computes f on the block with the smallest bound, which sets limit0 =
// min f + sweepSlack, and then on every block whose bound is ≤ limit0; a
// skipped block's every f exceeds limit0, which is ≥ the final min f +
// sweepSlack, so the minimum and the set of candidates within the slack of it
// are those of a sweep over every candidate. The second evaluates greedyCost,
// in ascending order, on those candidates. The break chosen is the one a
// sweep of greedyCost over every candidate would choose. Where the slack is
// +Inf or the range has at most two blocks, limit0 is +Inf and nothing is
// skipped.
func greedySplit(v record.View, lo, hi int, buf []float64, out []int) []int {
	if lo == hi {
		return append(out, hi)
	}
	sw := newRangeSweep(v, lo, hi)
	slack := sweepSlack(v, lo, hi)
	f := buf[:hi-lo]
	lbs := buf[len(f) : len(f)+(len(f)+sweepBlock-1)/sweepBlock]
	seed := sw.bounds(lbs)

	fmin, limit0 := math.Inf(1), math.Inf(1)
	if len(lbs) > 2 && !math.IsInf(slack, 1) {
		fmin = sw.fill(f, seed)
		limit0 = fmin + slack
	} else {
		seed = -1
	}
	for b, lb := range lbs {
		// A NaN bound (only where the slack is +Inf) compares false.
		if b == seed || lb > limit0 {
			continue
		}
		if bmin := sw.fill(f, b); bmin < fmin {
			fmin = bmin
		}
	}
	// A NaN limit (fmin not finite) compares false and keeps everything.
	limit := fmin + slack

	minCost := math.Inf(1)
	breakIdx := hi
	for b, lb := range lbs {
		if lb > limit0 {
			continue
		}
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
	out = greedySplit(v, lo, breakIdx, buf, out)
	out = greedySplit(v, breakIdx+1, hi, buf, out)
	return out
}

// greedyCost is compute_greedy_cost of Algorithm 1: the expected resource
// waste of the next task under the two-bucket configuration obtained by
// breaking the sorted range [lo, hi] after index i. The four cases of
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
	total := s1 + s2
	if total <= 0 {
		return math.Inf(1)
	}
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
