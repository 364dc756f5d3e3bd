package workflow

import (
	"math"
	"math/rand/v2"

	"dynalloc/internal/dist"
	"dynalloc/internal/resources"
)

func ln(x float64) float64 { return math.Log(x) }

// Task counts of the two production workflows (Section III-B).
const (
	ColmenaEvaluateTasks    = 228  // evaluate_mpnn
	ColmenaComputeTasks     = 1000 // compute_atomization_energy
	TopEFTPreprocessTasks   = 363
	TopEFTProcessTasks      = 3994
	TopEFTAccumulateTasks   = 212
	topEFTAccumulateSpacing = TopEFTProcessTasks / TopEFTAccumulateTasks
)

// categorySampler bundles the per-kind samplers of one task category.
type categorySampler struct {
	name   string
	cores  dist.Sampler
	memory dist.Sampler
	disk   dist.Sampler
	time   dist.Sampler
}

// resolved returns cs with every sampler resolved once (dist.Resolve), for
// a stream to draw all its tasks of the category from.
func (cs categorySampler) resolved() *categorySampler {
	return &categorySampler{
		name:   cs.name,
		cores:  dist.Resolve(cs.cores),
		memory: dist.Resolve(cs.memory),
		disk:   dist.Resolve(cs.disk),
		time:   dist.Resolve(cs.time),
	}
}

// fill generates tasks of the category with IDs first+1, first+2, ... into
// dst, drawing each task's cores, memory, disk and time in that order. The
// fields are stored one by one, as in fillSynthetic.
func (cs *categorySampler) fill(dst []Task, first int, r *rand.Rand) {
	for j := range dst {
		task := &dst[j]
		task.ID = first + j + 1
		task.Category = cs.name
		task.Consumption = resources.New(
			cs.cores.Sample(r),
			cs.memory.Sample(r),
			cs.disk.Sample(r),
			cs.time.Sample(r),
		)
	}
}

// ColmenaXTB synthesizes the ColmenaXTB molecular-design workflow of
// Section III: a phase of 228 evaluate_mpnn tasks (1.0-1.2 GB memory,
// ~1 core, ~10 MB disk) followed, after a barrier, by 1000
// compute_atomization_energy tasks (~200 MB memory, highly variable
// 0.9-3.6 cores, ~10 MB disk). The barrier reproduces the application
// logic: molecules are ranked first, then only top-ranked molecules are
// processed.
func ColmenaXTB(seed uint64) *Workflow {
	return Materialize(colmenaStream(seed))
}

// colmenaStream is the lazy core of ColmenaXTB: the evaluate phase streams
// first, then — past the barrier — the compute phase, all drawn from one
// sequential random stream so eager and lazy generation agree bit for bit.
func colmenaStream(seed uint64) *stream {
	r := dist.NewRand(seed)
	evaluate := categorySampler{
		name:   "evaluate_mpnn",
		cores:  dist.Normal{Mean: 1.0, Stddev: 0.08, Min: 0.5},
		memory: dist.Uniform{Lo: 1000, Hi: 1200},
		disk:   dist.Normal{Mean: 10, Stddev: 2, Min: 2},
		time:   dist.LogNormal{Mu: ln(90), Sigma: 0.35, Cap: 1800},
	}
	compute := categorySampler{
		name:   "compute_atomization_energy",
		cores:  dist.Uniform{Lo: 0.9, Hi: 3.6},
		memory: dist.Normal{Mean: 200, Stddev: 20, Min: 80},
		disk:   dist.Normal{Mean: 10, Stddev: 3, Min: 2},
		time:   dist.LogNormal{Mu: ln(300), Sigma: 0.5, Cap: 3600},
	}
	// Colmena's steering loop submits new work in response to returned
	// results rather than all at once; the window models that runtime task
	// generation.
	ev, co := evaluate.resolved(), compute.resolved()
	return &stream{
		name:     "colmena",
		barriers: []int{ColmenaEvaluateTasks},
		window:   50,
		n:        ColmenaEvaluateTasks + ColmenaComputeTasks,
		fill: func(dst []Task, first int) {
			if first < ColmenaEvaluateTasks {
				k := min(len(dst), ColmenaEvaluateTasks-first)
				ev.fill(dst[:k], first, r)
				dst, first = dst[k:], first+k
			}
			co.fill(dst, first, r)
		},
	}
}

// TopEFT synthesizes the TopEFT LHC-analysis workflow of Section III:
// 363 preprocessing tasks, then 3994 processing tasks interleaved with 212
// accumulating tasks (Coffea submits all preprocessing first, then divides
// events between processing tasks whose partial results accumulating tasks
// merge). Memory of processing tasks is the paper's puzzling two-cluster
// distribution (~450 MB and ~580 MB); preprocessing and accumulating sit
// near 180 MB; disk is the constant 306 MB the paper highlights; cores are
// mostly at or below one with occasional outliers up to three.
func TopEFT(seed uint64) *Workflow {
	return Materialize(topeftStream(seed))
}

// topeftStream is the lazy core of TopEFT. The interleave of processing and
// accumulating tasks is kept as sequential generator state (an accumulate
// task is emitted after every topEFTAccumulateSpacing-th processing task),
// reproducing the eager construction order exactly.
func topeftStream(seed uint64) *stream {
	r := dist.NewRand(seed)
	lightCores := dist.Outlier{
		Base: dist.Uniform{Lo: 0.2, Hi: 1.0},
		Tail: dist.Uniform{Lo: 1.5, Hi: 3.0},
		P:    0.02,
	}
	preprocess := categorySampler{
		name:   "preprocessing",
		cores:  lightCores,
		memory: dist.Normal{Mean: 180, Stddev: 12, Min: 80},
		disk:   dist.Constant{V: 306},
		time:   dist.LogNormal{Mu: ln(30), Sigma: 0.3, Cap: 600},
	}
	process := categorySampler{
		name: "processing",
		cores: dist.Outlier{
			Base: dist.Uniform{Lo: 0.5, Hi: 1.0},
			Tail: dist.Uniform{Lo: 1.5, Hi: 3.0},
			P:    0.03,
		},
		memory: dist.Mixture{Components: []dist.Component{
			{Weight: 0.45, Sampler: dist.Normal{Mean: 450, Stddev: 15, Min: 200}},
			{Weight: 0.55, Sampler: dist.Normal{Mean: 580, Stddev: 15, Min: 200}},
		}},
		disk: dist.Constant{V: 306},
		time: dist.LogNormal{Mu: ln(120), Sigma: 0.4, Cap: 2400},
	}
	accumulate := categorySampler{
		name:   "accumulating",
		cores:  lightCores,
		memory: dist.Normal{Mean: 185, Stddev: 12, Min: 80},
		disk:   dist.Constant{V: 306},
		time:   dist.LogNormal{Mu: ln(60), Sigma: 0.4, Cap: 1200},
	}

	pre, proc, acc := preprocess.resolved(), process.resolved(), accumulate.resolved()
	processed, accumulated := 0, 0
	accumulateNext := false
	return &stream{
		name:     "topeft",
		barriers: []int{TopEFTPreprocessTasks},
		n:        TopEFTPreprocessTasks + TopEFTProcessTasks + TopEFTAccumulateTasks,
		fill: func(dst []Task, first int) {
			if first < TopEFTPreprocessTasks {
				k := min(len(dst), TopEFTPreprocessTasks-first)
				pre.fill(dst[:k], first, r)
				dst, first = dst[k:], first+k
			}
			for j := range dst {
				cs := acc
				switch {
				case accumulateNext:
					accumulateNext = false
					accumulated++
				case processed < TopEFTProcessTasks:
					processed++
					if processed%topEFTAccumulateSpacing == 0 && accumulated < TopEFTAccumulateTasks {
						accumulateNext = true
					}
					cs = proc
				default:
					// Trailing accumulates, when the spacing leaves some over.
					accumulated++
				}
				cs.fill(dst[j:j+1], first+j, r)
			}
		},
	}
}
