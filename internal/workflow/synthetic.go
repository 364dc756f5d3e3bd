package workflow

import (
	"fmt"
	"math/rand/v2"

	"dynalloc/internal/dist"
	"dynalloc/internal/resources"
)

// DefaultSyntheticTasks is the task count of the paper's synthetic
// workflows (Section V-B).
const DefaultSyntheticTasks = 1000

// memoryPhases returns the memory sampler phases of each synthetic family,
// in MB. Each family captures one stochastic behaviour of Section V-B:
// Normal and Uniform for common randomness, Exponential for outliers,
// Bimodal for specialization of tasks, Phasing Trimodal for a moving
// resource distribution.
func memoryPhases(name string, n int) (dist.Phased, error) {
	switch name {
	case "normal":
		return dist.Phased{Phases: []dist.Sampler{
			dist.Normal{Mean: 8000, Stddev: 1500, Min: 100},
		}}, nil
	case "uniform":
		return dist.Phased{Phases: []dist.Sampler{
			dist.Uniform{Lo: 2000, Hi: 12000},
		}}, nil
	case "exponential":
		return dist.Phased{Phases: []dist.Sampler{
			dist.Exponential{Offset: 2000, Mean: 3000, Cap: 49152},
		}}, nil
	case "bimodal":
		return dist.Phased{Phases: []dist.Sampler{
			dist.Mixture{Components: []dist.Component{
				{Weight: 1, Sampler: dist.Normal{Mean: 3000, Stddev: 400, Min: 100}},
				{Weight: 1, Sampler: dist.Normal{Mean: 9000, Stddev: 700, Min: 100}},
			}},
		}}, nil
	case "trimodal":
		return dist.Phased{
			Phases: []dist.Sampler{
				dist.Normal{Mean: 3000, Stddev: 300, Min: 100},
				dist.Normal{Mean: 8000, Stddev: 500, Min: 100},
				dist.Normal{Mean: 5000, Stddev: 400, Min: 100},
			},
			Boundaries: []int{n / 3, 2 * n / 3},
		}, nil
	default:
		return dist.Phased{}, fmt.Errorf("%w: no synthetic family %q", ErrUnknownWorkflow, name)
	}
}

// syntheticStream is the lazy core of the five synthetic families: one
// shared random stream, sampled in a fixed per-task order, so the i-th task
// is identical whether the workload is drained eagerly or streamed.
func syntheticStream(name string, n int, seed uint64) (*stream, error) {
	if n <= 0 {
		n = DefaultSyntheticTasks
	}
	mem, err := memoryPhases(name, n)
	if err != nil {
		return nil, err
	}
	for i, s := range mem.Phases {
		mem.Phases[i] = dist.Resolve(s)
	}
	r := dist.NewRand(seed)
	timeSampler := dist.LogNormal{Mu: ln(120), Sigma: 0.4, Cap: 3600}
	var barriers []int
	if name == "trimodal" {
		barriers = append(barriers, mem.Boundaries...)
	}
	return &stream{
		name:     name,
		barriers: barriers,
		n:        n,
		fill: func(dst []Task, first int) {
			// One phase's index range at a time, each through a fill
			// instantiated for its concrete memory sampler.
			for len(dst) > 0 {
				phase, end := mem.PhaseAt(first)
				seg := dst[:min(len(dst), end-first)]
				switch m := phase.(type) {
				case dist.Uniform:
					fillSynthetic(seg, first, name, m, timeSampler, r)
				case dist.Normal:
					fillSynthetic(seg, first, name, m, timeSampler, r)
				case dist.Exponential:
					fillSynthetic(seg, first, name, m, timeSampler, r)
				default:
					fillSynthetic(seg, first, name, m, timeSampler, r)
				}
				dst, first = dst[len(seg):], first+len(seg)
			}
		},
	}, nil
}

// fillSynthetic generates tasks first, first+1, ... into dst, all within one
// memory phase. Each task draws its memory, then disk and cores from the
// same memory distribution, then its runtime. The fields are stored one by
// one: assigning a whole Task copies it through the runtime's typed move.
func fillSynthetic[S dist.Sampler](dst []Task, first int, name string, mem S, timeSampler dist.LogNormal, r *rand.Rand) {
	for j := range dst {
		m, d, c, t := mem.Sample(r), mem.Sample(r), mem.Sample(r), timeSampler.Sample(r)
		task := &dst[j]
		task.ID = first + j + 1
		task.Category = name
		// Disk follows the memory distribution at half magnitude; cores
		// follow it scaled into a realistic 0.5-12 core range.
		task.Consumption = resources.New(clampCores(c/4000), m, d*0.5, t)
	}
}

// Synthetic generates one of the five synthetic workflows with n tasks of a
// single category (the paper's worst case: a large consumption discrepancy
// within one category). n == 0 uses the paper's 1000 tasks. It is
// Materialize over the streaming generator; SourceByName returns the lazy
// form for workloads too large to hold.
func Synthetic(name string, n int, seed uint64) (*Workflow, error) {
	s, err := syntheticStream(name, n, seed)
	if err != nil {
		return nil, err
	}
	return Materialize(s), nil
}

func clampCores(c float64) float64 {
	if c < 0.25 {
		return 0.25
	}
	if c > 12 {
		return 12
	}
	return c
}
