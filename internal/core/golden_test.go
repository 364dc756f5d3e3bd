package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"testing"

	"dynalloc/internal/record"
)

// The golden-equivalence layer for the bucketing core: the recompute hot
// path is free to change its data structures (scratch reuse, suffix
// accumulators, snapshot views, double-buffered rebuilds) but must never
// change the bucket sets it derives or the prediction/retry values it
// serves. Each cell streams a seeded workload through a State, interleaving
// batched observations with Predict and Retry calls exactly the way the
// allocator drives it, and pins an FNV-1a fingerprint over every bucket
// boundary and every served value, bit-exact.
//
// Regenerate after an *intentional* behaviour change with:
//
//	CORE_GOLDEN_UPDATE=1 go test ./internal/core -run TestGoldenStateStreams -v

// streamFingerprint drives one bucketing state through batches of the
// generator's records and hashes everything observable: the bucket set after
// every recompute (index range, representative and probability bits, count)
// and the exact float bits of every Predict and Retry-chain value.
func streamFingerprint(alg Algorithm, seed uint64, gen func(*rand.Rand) float64) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	drive := rand.New(rand.NewPCG(seed, 0xD01))
	sample := rand.New(rand.NewPCG(seed, 0x5A3))
	s := NewState(alg)
	task := 0
	for round := 0; round < 60; round++ {
		// A completion batch lands between two ready tasks (Section V-C):
		// several records cost exactly one recompute on the next query.
		batch := 1 + drive.IntN(5)
		for b := 0; b < batch; b++ {
			task++
			s.Add(record.Record{
				TaskID: task,
				Value:  gen(drive),
				Sig:    float64(task),
				Time:   1 + drive.Float64(),
			})
		}
		for _, bkt := range s.Buckets() {
			word(uint64(bkt.Lo))
			word(uint64(bkt.Hi))
			word(math.Float64bits(bkt.Rep))
			word(math.Float64bits(bkt.Prob))
			word(uint64(bkt.Count))
		}
		// A few first allocations, one of which fails and escalates through
		// the retry chain until it clears the maximum seen value.
		for p := 0; p < 3; p++ {
			v := s.Predict(sample)
			word(math.Float64bits(v))
			if p == 0 {
				limit := s.Records().MaxValue()
				for hops := 0; v <= limit && hops < 64; hops++ {
					v = s.Retry(v, sample)
					word(math.Float64bits(v))
				}
			}
		}
	}
	return h.Sum64()
}

// goldenGenerators are the workload families of the evaluation (Section V-B)
// reduced to scalar record generators, in MB: the record list rounds values
// up to whole units, so GB-sized values would collapse to a dozen entries.
var goldenGenerators = []struct {
	name string
	gen  func(*rand.Rand) float64
}{
	{"uniform", func(r *rand.Rand) float64 { return 1000 * (2 + 10*r.Float64()) }},
	{"bimodal", func(r *rand.Rand) float64 {
		if r.Float64() < 0.5 {
			return 1000 * math.Max(3+0.4*r.NormFloat64(), 0.1)
		}
		return 1000 * math.Max(9+0.7*r.NormFloat64(), 0.1)
	}},
}

func TestGoldenStateStreams(t *testing.T) {
	algs := []Algorithm{GreedyBucketing{}, ExhaustiveBucketing{}}
	update := os.Getenv("CORE_GOLDEN_UPDATE") != ""
	i := 0
	for _, alg := range algs {
		for _, g := range goldenGenerators {
			for _, seed := range []uint64{1, 2, 3} {
				name := fmt.Sprintf("%s/%s/seed%d", alg.Name(), g.name, seed)
				got := streamFingerprint(alg, seed, g.gen)
				if update {
					fmt.Printf("\t0x%x,\n", got)
				} else if want := goldenStateStreams[i]; got != want {
					t.Errorf("%s: stream fingerprint 0x%x, want 0x%x", name, got, want)
				}
				i++
			}
		}
	}
}

// TestGoldenStateStreamsReproducible guards the golden table itself: the
// same cell must fingerprint identically twice in one process before
// comparing against pinned values means anything.
func TestGoldenStateStreamsReproducible(t *testing.T) {
	g := goldenGenerators[0]
	a := streamFingerprint(ExhaustiveBucketing{}, 1, g.gen)
	b := streamFingerprint(ExhaustiveBucketing{}, 1, g.gen)
	if a != b {
		t.Fatalf("same-seed streams diverged: %x vs %x", a, b)
	}
}

// goldenStateStreams is indexed by the cell order of TestGoldenStateStreams:
// algorithms {greedy, exhaustive} x generators {uniform, bimodal} x seeds
// {1, 2, 3}.
var goldenStateStreams = []uint64{
	0x5405fd5098c9a204,
	0xfbf078fb2b92af2,
	0x7f3b1561a48dcb5b,
	0xfb86a1559abf658,
	0xae03ff30dc3be98a,
	0x3c6df29d8c77c5a3,
	0x55d1f3d058d3fc49,
	0x151fff84675a48de,
	0x37550f63c0ed8d13,
	0x50f1285c7e9f0941,
	0xb867ec8e670adb3d,
	0x33795b5f36b233d0,
}
