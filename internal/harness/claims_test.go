package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
)

// claimGrid is one seed's Figure 5/6 grid on the sequential driver, indexed
// by workload and algorithm.
type claimGrid map[string]map[allocator.Name]Cell

func (g claimGrid) awe(wf string, alg allocator.Name, k resources.Kind) float64 {
	return g[wf][alg].AWE(k)
}

// failedShare is Figure 6's failed-allocation share of a cell's waste.
func (g claimGrid) failedShare(wf string, alg allocator.Name, k resources.Kind) float64 {
	ks := g[wf][alg].Kind(k)
	if total := ks.InternalFragmentation + ks.FailedAllocation; total > 0 {
		return ks.FailedAllocation / total
	}
	return 0
}

// best is the highest AWE any algorithm reaches in a (workflow, kind) cell.
func (g claimGrid) best(wf string, k resources.Kind) float64 {
	b := 0.0
	for _, c := range g[wf] {
		b = math.Max(b, c.AWE(k))
	}
	return b
}

var (
	claimSynthetics = []string{"normal", "uniform", "exponential", "bimodal", "trimodal"}
	claimBucketing  = []allocator.Name{allocator.Greedy, allocator.Exhaustive}
)

// paperClaim is one row of EXPERIMENTS.md's Figure 5 and Figure 6 shape
// checks: the paper's claim (Section V) in its own words, and a predicate
// over one seed's grid that returns whether the claim holds there, with the
// numbers it judged. deviation names the known deviation (EXPERIMENTS.md,
// "Known deviations") under which the claim is expected not to hold.
type paperClaim struct {
	claim     string
	deviation string
	holds     func(g claimGrid) (bool, string)
}

var paperClaims = []paperClaim{
	{
		claim: "Fig. 5: Whole Machine performs very poorly everywhere",
		holds: func(g claimGrid) (bool, string) {
			for wf, row := range g {
				for _, k := range resources.AllocatedKinds() {
					wm := row[allocator.WholeMachine].AWE(k)
					for alg, c := range row {
						if alg != allocator.WholeMachine && wm >= c.AWE(k) {
							return false, fmt.Sprintf("%s %s: whole machine %.1f%% ≥ %s %.1f%%", wf, k, 100*wm, alg, 100*c.AWE(k))
						}
					}
					if wm > 0.15 {
						return false, fmt.Sprintf("%s %s: whole machine %.1f%%", wf, k, 100*wm)
					}
				}
			}
			return true, "below every predictive algorithm and ≤ 15% in every cell"
		},
	},
	{
		claim: "Fig. 5: the bucketing algorithms consistently lead or tie",
		holds: func(g claimGrid) (bool, string) {
			// Leading or tying: the better of the two within 6 points of the
			// cell's best, on all but one of the 21 (workflow, kind) cells.
			near, cells := 0, 0
			for wf := range g {
				for _, k := range resources.AllocatedKinds() {
					cells++
					if math.Max(g.awe(wf, allocator.Greedy, k), g.awe(wf, allocator.Exhaustive, k)) >= g.best(wf, k)-0.06 {
						near++
					}
				}
			}
			return near >= cells-1, fmt.Sprintf("within 6 points of the best on %d/%d cells", near, cells)
		},
	},
	{
		claim: "Fig. 5: Max Seen trails the best by 5–25%",
		holds: func(g claimGrid) (bool, string) {
			// Memory, averaged over the seven workflows, in points.
			gap := 0.0
			for wf := range g {
				gap += g.best(wf, resources.Memory) - g.awe(wf, allocator.MaxSeen, resources.Memory)
			}
			gap /= float64(len(g))
			return gap >= 0.05 && gap <= 0.25, fmt.Sprintf("mean memory gap %.1f points", 100*gap)
		},
	},
	{
		claim: "Fig. 5: the exponential workflow is the hardest",
		holds: func(g claimGrid) (bool, string) {
			for _, alg := range claimBucketing {
				exp := g.awe("exponential", alg, resources.Memory)
				for _, wf := range claimSynthetics {
					if wf != "exponential" && g.awe(wf, alg, resources.Memory) <= exp {
						return false, fmt.Sprintf("%s memory: %s %.1f%% ≤ exponential %.1f%%", alg, wf, 100*g.awe(wf, alg, resources.Memory), 100*exp)
					}
				}
			}
			return true, "lowest bucketing memory AWE of the synthetics"
		},
	},
	{
		claim: "Fig. 5: TopEFT memory efficiency is around 80% under bucketing",
		holds: func(g claimGrid) (bool, string) {
			for _, alg := range claimBucketing {
				if a := g.awe("topeft", alg, resources.Memory); a < 0.75 || a > 0.90 {
					return false, fmt.Sprintf("%s %.1f%%", alg, 100*a)
				}
			}
			return true, "75–90%"
		},
	},
	{
		claim: "Fig. 5: TopEFT disk efficiency is near 100% under bucketing, Max Seen capped by its 250 MB histogram",
		holds: func(g claimGrid) (bool, string) {
			for _, alg := range claimBucketing {
				if a := g.awe("topeft", alg, resources.Disk); a < 0.95 {
					return false, fmt.Sprintf("%s %.1f%%", alg, 100*a)
				}
			}
			// 306 MB of consumption in a 500 MB allocation at best.
			ms := g.awe("topeft", allocator.MaxSeen, resources.Disk)
			return ms <= 306.0/500, fmt.Sprintf("bucketing ≥ 95%%, max seen %.1f%%", 100*ms)
		},
	},
	{
		claim:     "Fig. 5: on TopEFT cores, Min Waste, Max Throughput and Quantized Bucketing are 20–30% better than bucketing",
		deviation: "TopEFT cores crossover",
		holds: func(g claimGrid) (bool, string) {
			bucket := math.Max(g.awe("topeft", allocator.Greedy, resources.Cores), g.awe("topeft", allocator.Exhaustive, resources.Cores))
			for _, alg := range []allocator.Name{allocator.MinWaste, allocator.MaxThroughput, allocator.Quantized} {
				if a := g.awe("topeft", alg, resources.Cores); a < 1.2*bucket {
					return false, fmt.Sprintf("%s %.1f%% vs bucketing %.1f%%", alg, 100*a, 100*bucket)
				}
			}
			return true, ""
		},
	},
	{
		claim:     "Fig. 5: bimodal and trimodal efficiency is 40–50% under bucketing",
		deviation: "absolute AWE levels",
		holds: func(g claimGrid) (bool, string) {
			for _, wf := range []string{"bimodal", "trimodal"} {
				for _, alg := range claimBucketing {
					if a := g.awe(wf, alg, resources.Memory); a < 0.40 || a > 0.50 {
						return false, fmt.Sprintf("%s %s %.1f%%", wf, alg, 100*a)
					}
				}
			}
			return true, ""
		},
	},
	{
		claim:     "Fig. 5: ColmenaXTB disk efficiency is single-digit for every algorithm",
		deviation: "absolute AWE levels",
		holds: func(g claimGrid) (bool, string) {
			// Holds under the pool simulation only: the sequential driver
			// feeds every record back before the next dispatch.
			for alg, c := range g["colmena"] {
				if a := c.AWE(resources.Disk); a >= 0.10 {
					return false, fmt.Sprintf("%s %.1f%%", alg, 100*a)
				}
			}
			return true, ""
		},
	},
	{
		claim: "Fig. 6: predictive algorithms favour over-estimation; internal fragmentation dominates",
		holds: func(g claimGrid) (bool, string) {
			worst := 0.0
			for _, wf := range claimSynthetics {
				for _, alg := range allocator.PredictiveNames() {
					worst = math.Max(worst, g.failedShare(wf, alg, resources.Memory))
				}
			}
			return worst < 0.5, fmt.Sprintf("largest synthetic memory failed share %.1f%%", 100*worst)
		},
	},
	{
		claim: "Fig. 6: Min Waste and Max Throughput carry 20–30% failed-allocation waste",
		holds: func(g claimGrid) (bool, string) {
			// On the multimodal workflows, where their single first
			// allocation splits the modes; up to 35% is read as ~30%.
			for _, wf := range []string{"bimodal", "trimodal"} {
				for _, alg := range []allocator.Name{allocator.MinWaste, allocator.MaxThroughput} {
					if s := g.failedShare(wf, alg, resources.Memory); s < 0.20 || s > 0.35 {
						return false, fmt.Sprintf("%s %s %.1f%%", wf, alg, 100*s)
					}
				}
			}
			return true, "20–35% on bimodal and trimodal memory"
		},
	},
	{
		claim: "Fig. 6: Max Seen is almost pure over-estimation",
		holds: func(g claimGrid) (bool, string) {
			worst := 0.0
			for wf := range g {
				for _, k := range resources.AllocatedKinds() {
					worst = math.Max(worst, g.failedShare(wf, allocator.MaxSeen, k))
				}
			}
			return worst <= 0.02, fmt.Sprintf("largest failed share %.1f%%", 100*worst)
		},
	},
	{
		claim: "Fig. 6: on ColmenaXTB, failed allocations are a large share of the waste (bucketing and quantized)",
		holds: func(g claimGrid) (bool, string) {
			// EXPERIMENTS.md marks the paper's "dominate for most
			// algorithms" partial: the bucketing family carries a large
			// failed share, the Tovar strategies do not.
			for _, alg := range []allocator.Name{allocator.Quantized, allocator.Greedy, allocator.Exhaustive} {
				if s := g.failedShare("colmena", alg, resources.Memory); s < 0.15 {
					return false, fmt.Sprintf("%s %.1f%%", alg, 100*s)
				}
			}
			return true, "≥ 15% of memory waste"
		},
	},
	{
		claim: "Fig. 6: TopEFT waste is mostly over-allocation",
		holds: func(g claimGrid) (bool, string) {
			for _, alg := range claimBucketing {
				if s := g.failedShare("topeft", alg, resources.Memory); s > 0.10 {
					return false, fmt.Sprintf("%s %.1f%%", alg, 100*s)
				}
			}
			return true, "bucketing memory failed share ≤ 10%"
		},
	},
}

// TestPaperClaims holds the shape claims of EXPERIMENTS.md's Figure 5 and
// Figure 6 tables to the grid they were read from, at seeds 1–3 on the
// sequential driver: a claim holds when its predicate holds at every seed.
// A claim under a known deviation must not hold; should one start to, the
// deviation is gone and EXPERIMENTS.md moves the row.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full figure grid three times")
	}
	var grids []claimGrid
	for seed := uint64(1); seed <= 3; seed++ {
		cells, err := RunGrid(Options{Seed: seed, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		g := claimGrid{}
		for _, c := range cells {
			if g[c.Workload] == nil {
				g[c.Workload] = map[allocator.Name]Cell{}
			}
			g[c.Workload][c.Algorithm] = c
		}
		grids = append(grids, g)
	}
	for _, c := range paperClaims {
		holds := true
		var details []string
		for i, g := range grids {
			ok, detail := c.holds(g)
			holds = holds && ok
			details = append(details, fmt.Sprintf("seed %d: %v, %s", i+1, ok, detail))
		}
		switch {
		case c.deviation == "" && !holds:
			t.Errorf("%s: does not hold (%s)", c.claim, strings.Join(details, "; "))
		case c.deviation != "" && holds:
			t.Errorf("%s: holds, though listed under the known deviation %q (%s)", c.claim, c.deviation, strings.Join(details, "; "))
		default:
			t.Logf("%s: %s", c.claim, strings.Join(details, "; "))
		}
	}
}
