// Package dist provides the seeded, deterministic random distributions used
// by the synthetic workload generators: the five distribution families of the
// paper's synthetic workflows (Normal, Uniform, Exponential, Bimodal,
// Phasing Trimodal) plus the auxiliary shapes (log-normal run times,
// constants, mixtures) needed to synthesize the production workloads.
//
// Every sampler draws from an explicit *rand.Rand so that entire experiments
// are reproducible from a single seed.
package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// NewRand returns a deterministic generator for the given seed. All
// experiment entry points derive their randomness from this constructor so a
// run is fully determined by its seed.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Sampler produces one value per call. Implementations must be pure
// functions of the provided generator state.
type Sampler interface {
	Sample(r *rand.Rand) float64
	Name() string
}

// Constant always returns V.
type Constant struct{ V float64 }

// Sample implements Sampler.
func (c Constant) Sample(*rand.Rand) float64 { return c.V }

// Name implements Sampler.
func (c Constant) Name() string { return fmt.Sprintf("constant(%g)", c.V) }

// Uniform samples uniformly from [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Sampler.
func (u Uniform) Sample(r *rand.Rand) float64 { return u.Lo + r.Float64()*(u.Hi-u.Lo) }

// Name implements Sampler.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(%g,%g)", u.Lo, u.Hi) }

// Normal samples from a normal distribution with the given mean and standard
// deviation, truncated below at Min (values are re-drawn by clamping, which
// keeps the sampler single-draw and deterministic).
type Normal struct {
	Mean, Stddev float64
	Min          float64 // floor; consumption can never be negative
}

// Sample implements Sampler.
func (n Normal) Sample(r *rand.Rand) float64 {
	v := n.Mean + r.NormFloat64()*n.Stddev
	return math.Max(v, n.Min)
}

// Name implements Sampler.
func (n Normal) Name() string { return fmt.Sprintf("normal(%g,%g)", n.Mean, n.Stddev) }

// Exponential samples Offset + Exp(Mean). Cap, when positive, truncates the
// tail so a pathological draw cannot exceed a worker's capacity.
type Exponential struct {
	Offset, Mean float64
	Cap          float64
}

// Sample implements Sampler.
func (e Exponential) Sample(r *rand.Rand) float64 {
	v := e.Offset + r.ExpFloat64()*e.Mean
	if e.Cap > 0 && v > e.Cap {
		v = e.Cap
	}
	return v
}

// Name implements Sampler.
func (e Exponential) Name() string { return fmt.Sprintf("exponential(%g+%g)", e.Offset, e.Mean) }

// LogNormal samples exp(N(Mu, Sigma)), optionally capped.
type LogNormal struct {
	Mu, Sigma float64
	Cap       float64
}

// Sample implements Sampler.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	v := math.Exp(l.Mu + r.NormFloat64()*l.Sigma)
	if l.Cap > 0 && v > l.Cap {
		v = l.Cap
	}
	return v
}

// Name implements Sampler.
func (l LogNormal) Name() string { return fmt.Sprintf("lognormal(%g,%g)", l.Mu, l.Sigma) }

// Component pairs a sampler with a selection weight for use in a Mixture.
type Component struct {
	Weight  float64
	Sampler Sampler
}

// Mixture selects one component with probability proportional to its weight
// and samples from it. It models the paper's Bimodal synthetic workflow and
// the two-cluster memory behaviour of TopEFT processing tasks.
type Mixture struct {
	Components []Component
}

// Sample implements Sampler.
func (m Mixture) Sample(r *rand.Rand) float64 {
	return m.sample(r, m.weightTotal())
}

// weightTotal sums the component weights in component order.
func (m Mixture) weightTotal() float64 {
	total := 0.0
	for _, c := range m.Components {
		total += c.Weight
	}
	return total
}

// sample selects a component by one uniform draw scaled to total, the
// mixture's weight sum, and samples from it.
func (m Mixture) sample(r *rand.Rand, total float64) float64 {
	if total <= 0 || len(m.Components) == 0 {
		return 0
	}
	x := r.Float64() * total
	for _, c := range m.Components {
		x -= c.Weight
		if x < 0 {
			return c.Sampler.Sample(r)
		}
	}
	return m.Components[len(m.Components)-1].Sampler.Sample(r)
}

// resolvedMixture is a Mixture whose weight total is summed once.
type resolvedMixture struct {
	Mixture
	total float64
}

// Sample implements Sampler.
func (m *resolvedMixture) Sample(r *rand.Rand) float64 { return m.sample(r, m.total) }

// Name implements Sampler.
func (m Mixture) Name() string {
	return fmt.Sprintf("mixture(%d components)", len(m.Components))
}

// Outlier wraps a base sampler and, with probability P, replaces the draw
// with one from the Tail sampler. It models the occasional multi-core
// outliers observed in TopEFT (Section III-B).
type Outlier struct {
	Base Sampler
	Tail Sampler
	P    float64
}

// Sample implements Sampler.
func (o Outlier) Sample(r *rand.Rand) float64 {
	if r.Float64() < o.P {
		return o.Tail.Sample(r)
	}
	return o.Base.Sample(r)
}

// Name implements Sampler.
func (o Outlier) Name() string {
	return fmt.Sprintf("outlier(p=%g, base=%s)", o.P, o.Base.Name())
}

// Scaled multiplies another sampler's draws by Factor. It derives the cores
// series of a synthetic workflow from its memory series, preserving the
// distribution's shape at a different magnitude ("cores have a slightly
// different distribution", Section V-B).
type Scaled struct {
	Base   Sampler
	Factor float64
	Min    float64
}

// Sample implements Sampler.
func (s Scaled) Sample(r *rand.Rand) float64 {
	return math.Max(s.Base.Sample(r)*s.Factor, s.Min)
}

// Name implements Sampler.
func (s Scaled) Name() string { return fmt.Sprintf("scaled(%g*%s)", s.Factor, s.Base.Name()) }

// Phased switches between samplers as a function of the task index, modeling
// the paper's Phasing Trimodal workflow in which the resource distribution
// moves between phases of a workflow run. Boundaries are the first task
// index of each subsequent phase.
type Phased struct {
	Phases     []Sampler
	Boundaries []int // len(Boundaries) == len(Phases)-1, ascending
}

// SampleAt returns a draw for the task with the given submission index, or
// 0 when there are no phases.
func (p Phased) SampleAt(index int, r *rand.Rand) float64 {
	s, _ := p.PhaseAt(index)
	if s == nil {
		return 0
	}
	return s.Sample(r)
}

// PhaseAt returns the sampler of the phase that holds the given submission
// index, and end, the first index past that phase (math.MaxInt in the last
// phase), so a batch generator can draw a whole index range from one
// phase. s is nil when there are no phases.
func (p Phased) PhaseAt(index int) (s Sampler, end int) {
	if len(p.Phases) == 0 {
		return nil, math.MaxInt
	}
	phase := 0
	for phase < len(p.Boundaries) && index >= p.Boundaries[phase] {
		phase++
	}
	end = math.MaxInt
	if phase < len(p.Boundaries) {
		end = p.Boundaries[phase]
	}
	return p.Phases[phase], end
}

// Sample implements Sampler by drawing from the first phase; prefer SampleAt
// for index-aware sampling.
func (p Phased) Sample(r *rand.Rand) float64 {
	if len(p.Phases) == 0 {
		return 0
	}
	return p.Phases[0].Sample(r)
}

// Name implements Sampler.
func (p Phased) Name() string { return fmt.Sprintf("phased(%d phases)", len(p.Phases)) }

// Resolve returns a sampler that draws exactly what s draws — the same
// formulas, the same random draws in the same order, bit for bit — with the
// invariants s would recompute on every draw computed once: a Mixture's
// weight total. A generator that draws many values from one sampler
// resolves it once and draws from the result; s must not change afterwards.
func Resolve(s Sampler) Sampler {
	if m, ok := s.(Mixture); ok {
		return &resolvedMixture{Mixture: m, total: m.weightTotal()}
	}
	return s
}
