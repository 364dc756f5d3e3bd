package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/vine"
)

// The golden-equivalence layer: the dispatch hot path is free to change its
// data structures (alive-worker index, ready deque, precomputed capacity
// limits) but must never change simulated results. Each scenario pins the
// exact Result a fixed seed produces — makespan to the bit, eviction and
// attempt counts, and an FNV-1a fingerprint over every outcome's attempt
// chain. Any refactor that perturbs dispatch order, admission decisions, or
// requeue order shows up as a fingerprint mismatch.
//
// Regenerate after an *intentional* behaviour change with:
//
//	SIM_GOLDEN_UPDATE=1 go test ./internal/sim -run TestGoldenEquivalence -v

// resultFingerprint hashes everything observable about a run's outcomes:
// task IDs, attempt statuses, attempt durations, and allocation vectors,
// all bit-exact.
func resultFingerprint(res *Result) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(math.Float64bits(res.Makespan))
	word(uint64(res.Evictions))
	word(uint64(res.PeakWorkers))
	for _, o := range res.Outcomes {
		word(uint64(o.TaskID))
		word(uint64(len(o.Attempts)))
		for _, a := range o.Attempts {
			word(uint64(a.Status))
			word(math.Float64bits(a.Duration))
			for _, v := range a.Alloc {
				word(math.Float64bits(v))
			}
		}
	}
	return h.Sum64()
}

type goldenWant struct {
	makespan    float64
	evictions   int
	peakWorkers int
	attempts    int
	retries     int
	fingerprint uint64
}

// goldenConfig builds the scenario config for one (seed, placement) cell:
// a 250-task bimodal workload under Exhaustive Bucketing on a churny pool,
// so the run exercises evictions, block requeues, retries, and backfilled
// dispatch. withData additionally attaches the TaskVine data layer.
func goldenConfig(t testing.TB, seed uint64, place Placement, withData bool) Config {
	t.Helper()
	w := mustWorkflow(t, "bimodal", 250, seed)
	cfg := Config{
		Workflow: w,
		Policy:   allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: seed + 100}),
		Pool: opportunistic.Churn{
			Initial: 8, MeanLifetime: 500, MeanInterval: 200,
			Horizon: 2e4, KeepLastAlive: true,
		},
		PoolSeed: seed,
		Place:    place,
	}
	if withData {
		layer := vine.NewLayer()
		vine.Attach(layer, w, seed)
		cfg.Data = layer
	}
	return cfg
}

func TestGoldenEquivalence(t *testing.T) {
	type cell struct {
		seed     uint64
		place    Placement
		withData bool
	}
	var cells []cell
	for _, seed := range []uint64{1, 2} {
		for _, p := range Placements() {
			cells = append(cells, cell{seed: seed, place: p})
		}
	}
	// Locality with a live data layer: staging delays and cache-aware
	// picks are part of the contract too.
	cells = append(cells, cell{seed: 1, place: Locality, withData: true})

	update := os.Getenv("SIM_GOLDEN_UPDATE") != ""
	for i, c := range cells {
		name := fmt.Sprintf("seed%d/%s", c.seed, c.place)
		if c.withData {
			name += "+data"
		}
		t.Run(name, func(t *testing.T) {
			res, err := Run(goldenConfig(t, c.seed, c.place, c.withData))
			if err != nil {
				t.Fatal(err)
			}
			got := goldenWant{
				makespan:    res.Makespan,
				evictions:   res.Evictions,
				peakWorkers: res.PeakWorkers,
				attempts:    res.Summary().Attempts,
				retries:     res.Summary().Retries,
				fingerprint: resultFingerprint(res),
			}
			if update {
				fmt.Printf("\t{makespan: %v, evictions: %d, peakWorkers: %d, attempts: %d, retries: %d, fingerprint: 0x%x},\n",
					got.makespan, got.evictions, got.peakWorkers, got.attempts, got.retries, got.fingerprint)
				return
			}
			want := goldenResults[i]
			if got != want {
				t.Errorf("result diverged from golden:\n got  %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestGoldenRunsAreReproducible guards the golden table itself: two
// back-to-back runs of the same cell must already agree before comparing
// against pinned values means anything.
func TestGoldenRunsAreReproducible(t *testing.T) {
	run := func() uint64 {
		res, err := Run(goldenConfig(t, 1, WorstFit, false))
		if err != nil {
			t.Fatal(err)
		}
		return resultFingerprint(res)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed runs diverged: %x vs %x", a, b)
	}
}

// goldenResults is indexed by the cell order constructed in
// TestGoldenEquivalence: seeds {1, 2} x Placements(), then the
// locality+data cell. Locality without a data layer scores every worker 0
// and degenerates to first-fit, so those rows match by construction.
var goldenResults = []goldenWant{
	{makespan: 1083.767952596239, evictions: 110, peakWorkers: 10, attempts: 1778, retries: 1477, fingerprint: 0x56cb247eb65a1390},
	{makespan: 1271.2785360549142, evictions: 110, peakWorkers: 10, attempts: 1757, retries: 1453, fingerprint: 0x9fd9891612faf36f},
	{makespan: 990.8999394714592, evictions: 110, peakWorkers: 10, attempts: 1732, retries: 1429, fingerprint: 0x97b29fae61df1d5c},
	{makespan: 1083.767952596239, evictions: 110, peakWorkers: 10, attempts: 1778, retries: 1477, fingerprint: 0x56cb247eb65a1390},
	{makespan: 1291.5866225283432, evictions: 119, peakWorkers: 11, attempts: 1727, retries: 1372, fingerprint: 0x386e25005d5f71e0},
	{makespan: 1271.8330728440658, evictions: 119, peakWorkers: 11, attempts: 1728, retries: 1374, fingerprint: 0x2a98aa658b89cb99},
	{makespan: 1318.3486643076585, evictions: 119, peakWorkers: 11, attempts: 1738, retries: 1374, fingerprint: 0x75fdd0e3613033d0},
	{makespan: 1291.5866225283432, evictions: 119, peakWorkers: 11, attempts: 1727, retries: 1372, fingerprint: 0x386e25005d5f71e0},
	{makespan: 1229.8817306250423, evictions: 110, peakWorkers: 10, attempts: 1765, retries: 1457, fingerprint: 0x10535b111dac552c},
}
