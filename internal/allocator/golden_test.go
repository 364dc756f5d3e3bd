package allocator

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"testing"

	"dynalloc/internal/resources"
)

// The golden-equivalence layer for the allocator: the estimator hot path
// (record-list rebuilds, bucket recomputes, scratch reuse) may be rebuilt
// freely, but the exact allocation stream every algorithm serves for a fixed
// seed must not move by a bit. Each cell replays a synthetic scheduler loop —
// Allocate, escalate through Retry until the task's true peak fits, Observe —
// across two task categories, and pins an FNV-1a fingerprint over every
// allocation vector the policy returned along the way.
//
// Regenerate after an *intentional* behaviour change with:
//
//	ALLOC_GOLDEN_UPDATE=1 go test ./internal/allocator -run TestGoldenAllocationStreams -v

// allocStreamFingerprint replays the scheduler loop against a fresh
// allocator and hashes every vector it serves.
func allocStreamFingerprint(alg Name, seed uint64) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	hashVec := func(v resources.Vector) {
		for _, x := range v {
			word(math.Float64bits(x))
		}
	}
	a := MustNew(alg, Config{Seed: seed + 100})
	drive := rand.New(rand.NewPCG(seed, 0xA11))
	cats := []string{"preproc", "fit"}
	for task := 1; task <= 250; task++ {
		cat := cats[task%len(cats)]
		// A bimodal peak keeps both escalation and steady-state paths hot.
		peak := resources.New(
			1+3*drive.Float64(),
			200+3000*drive.Float64(),
			100+800*drive.Float64(),
			10+50*drive.Float64(),
		)
		if drive.Float64() < 0.3 {
			peak = peak.Scale(4)
		}
		alloc := a.Allocate(cat, task)
		hashVec(alloc)
		for hop := 0; hop < 64; hop++ {
			var exceeded []resources.Kind
			for _, k := range resources.AllocatedKinds() {
				if peak.Get(k) > alloc.Get(k) {
					exceeded = append(exceeded, k)
				}
			}
			if len(exceeded) == 0 {
				break
			}
			alloc = a.Retry(cat, task, alloc, exceeded)
			hashVec(alloc)
		}
		a.Observe(cat, task, peak, 10+50*drive.Float64())
	}
	return h.Sum64()
}

func TestGoldenAllocationStreams(t *testing.T) {
	update := os.Getenv("ALLOC_GOLDEN_UPDATE") != ""
	i := 0
	for _, alg := range ExtendedNames() {
		for _, seed := range []uint64{1, 2, 3} {
			name := fmt.Sprintf("%s/seed%d", alg, seed)
			got := allocStreamFingerprint(alg, seed)
			if update {
				fmt.Printf("\t0x%x, // %s\n", got, name)
			} else if want := goldenAllocationStreams[i]; got != want {
				t.Errorf("%s: allocation stream fingerprint 0x%x, want 0x%x", name, got, want)
			}
			i++
		}
	}
}

// TestGoldenAllocationStreamsReproducible guards the golden table itself:
// two replays of the same cell must agree before the pinned values mean
// anything.
func TestGoldenAllocationStreamsReproducible(t *testing.T) {
	a := allocStreamFingerprint(Exhaustive, 1)
	b := allocStreamFingerprint(Exhaustive, 1)
	if a != b {
		t.Fatalf("same-seed streams diverged: %x vs %x", a, b)
	}
}

// goldenAllocationStreams is indexed by the cell order of
// TestGoldenAllocationStreams: ExtendedNames() x seeds {1, 2, 3}.
var goldenAllocationStreams = []uint64{
	0x1ae3a9edd5adf495, // whole-machine/seed1
	0x1ae3a9edd5adf495, // whole-machine/seed2
	0x1ae3a9edd5adf495, // whole-machine/seed3
	0xd1e4a4df78c4d51a, // max-seen/seed1
	0x22b1f36f30e05ee3, // max-seen/seed2
	0x23cc5142cdb07c9c, // max-seen/seed3
	0xbbb00b7b785c780d, // min-waste/seed1
	0xc28312fcce9a4998, // min-waste/seed2
	0x7d22b76a4bed8165, // min-waste/seed3
	0x7861a59f5d3dfeff, // max-throughput/seed1
	0xc14f71298e5af001, // max-throughput/seed2
	0x4df47795bc8c3fe5, // max-throughput/seed3
	0x5fdc9961b61c368c, // quantized-bucketing/seed1
	0x49d23b43eec47e26, // quantized-bucketing/seed2
	0xcc37ed3a3ffb633c, // quantized-bucketing/seed3
	0x80eb557dfc0eb3bb, // greedy-bucketing/seed1
	0xd961e01020d8eebf, // greedy-bucketing/seed2
	0x7deb287943783c91, // greedy-bucketing/seed3
	0x319e5760a356533d, // exhaustive-bucketing/seed1
	0xcf27445fb1853507, // exhaustive-bucketing/seed2
	0x9ffc83e9a65b420e, // exhaustive-bucketing/seed3
	0x4c8b3de5a558beba, // kmeans-bucketing/seed1
	0xe4f3cc12c24525ce, // kmeans-bucketing/seed2
	0x516a4fc2fb41ce71, // kmeans-bucketing/seed3
	0x7775522e2416e1ca, // percentile/seed1
	0x6c6b15b05b9f285c, // percentile/seed2
	0x69e3de9e77a7c6de, // percentile/seed3
}
