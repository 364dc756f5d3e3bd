package allocator

import (
	"math"
	"math/rand/v2"
	"sort"

	"dynalloc/internal/record"
)

// Extension algorithms beyond the paper's seven (its Section VII names
// "exploring other approaches and deriving alternative solutions" as future
// work). They are excluded from the paper-reproduction figures — Names()
// stays the evaluation's seven — but share the same Policy machinery and
// participate in the extended grid via ExtendedNames().

// Extension algorithm names.
const (
	// KMeans is the k-means clustering variant of the category-aware
	// allocator of Phung et al. [11] ("using the k-means and quantile
	// clustering methods"); Quantized covers the quantile variant.
	KMeans Name = "kmeans-bucketing"
	// Percentile allocates a fixed high quantile of the observed records —
	// a common operations heuristic and a useful yardstick for the
	// bucketing algorithms.
	Percentile Name = "percentile"
)

// ExtendedNames returns the paper's seven algorithms plus the extensions.
func ExtendedNames() []Name {
	return append(Names(), KMeans, Percentile)
}

// kmeans clusters the observed records with 1-D Lloyd's algorithm and
// treats each cluster as a bucket: representative = cluster max,
// probability = record share. Retry escalates through higher clusters, then
// doubles.
type kmeans struct {
	recs record.List
	k    int
	// Lloyd's algorithm is deterministic for a fixed record list; cache the
	// clusters until the next observation.
	cachedAt      int
	cachedReps    []float64
	cachedWeights []float64
}

// kmeansK is the cluster count of the KMeans extension.
const kmeansK = 3

func newKMeans(k int) *kmeans {
	return &kmeans{k: k}
}

// clusters returns the bucket representatives and record-count weights.
func (km *kmeans) clusters() (reps, weights []float64) {
	n := km.recs.Len()
	if n == 0 {
		return nil, nil
	}
	if km.cachedAt == n {
		return km.cachedReps, km.cachedWeights
	}
	defer func() {
		km.cachedAt, km.cachedReps, km.cachedWeights = n, reps, weights
	}()
	v := km.recs.View()
	values := v.Values
	k := km.k
	if k > n {
		k = n
	}
	// Initialize centroids evenly across the sorted records (deterministic;
	// no k-means++ randomness so allocations are reproducible).
	centroids := make([]float64, k)
	for i := range centroids {
		centroids[i] = km.recs.RankValue((2*i + 1) * (n - 1) / (2 * k))
	}
	// Records of one value share an entry, and so a cluster: each entry is
	// assigned once and weighs its record count.
	assign := make([]int, len(values))
	for iter := 0; iter < 32; iter++ {
		changed := false
		// Assignment: records are sorted, centroids are sorted, so the
		// boundary between cluster c and c+1 is the midpoint.
		for i, x := range values {
			best := 0
			bestD := math.Abs(x - centroids[0])
			for c := 1; c < k; c++ {
				if d := math.Abs(x - centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Update. The values are integers, so the sums are exact below 2⁵³
		// and equal a record-by-record sum.
		sum := make([]float64, k)
		cnt := make([]float64, k)
		for i, x := range values {
			w := float64(km.recs.Count(i, i))
			sum[assign[i]] += x * w
			cnt[assign[i]] += w
		}
		for c := 0; c < k; c++ {
			if cnt[c] > 0 {
				centroids[c] = sum[c] / cnt[c]
			}
		}
		sort.Float64s(centroids)
		if !changed {
			break
		}
	}
	// Materialize buckets from assignments (clusters are contiguous in
	// sorted order because centroids are sorted).
	maxV := make([]float64, k)
	cnt := make([]float64, k)
	for i, x := range values {
		c := assign[i]
		cnt[c] += float64(km.recs.Count(i, i))
		if x > maxV[c] {
			maxV[c] = x
		}
	}
	for c := 0; c < k; c++ {
		if cnt[c] == 0 {
			continue
		}
		reps = append(reps, maxV[c])
		weights = append(weights, cnt[c])
	}
	return reps, weights
}

func (km *kmeans) Predict(r *rand.Rand) float64 {
	reps, weights := km.clusters()
	return sampleReps(reps, weights, -math.Inf(1), r)
}

func (km *kmeans) Retry(prev float64, r *rand.Rand) float64 {
	reps, _ := km.clusters()
	any := false
	for _, rep := range reps {
		if rep > prev {
			any = true
			break
		}
	}
	if !any {
		if prev <= 0 {
			return 1
		}
		return prev * 2
	}
	_, weights := km.clusters()
	return sampleReps(reps, weights, prev, r)
}

func (km *kmeans) Observe(rec record.Record) { km.recs.Add(rec) }

func (km *kmeans) Len() int { return km.recs.Len() }

// sampleReps draws a representative above the floor in proportion to the
// weights, or 0 when none qualify.
func sampleReps(reps, weights []float64, floor float64, r *rand.Rand) float64 {
	total := 0.0
	for i, rep := range reps {
		if rep > floor {
			total += weights[i]
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, rep := range reps {
		if rep <= floor {
			continue
		}
		x -= weights[i]
		if x < 0 {
			return rep
		}
	}
	return reps[len(reps)-1]
}

// percentile allocates the q-quantile of observed values (default P95) and
// retries at the maximum, then doubles.
type percentile struct {
	recs record.List
	q    float64
}

// percentileQ is the quantile of the Percentile extension.
const percentileQ = 0.95

// newPercentile allocates the q-quantile, q in (0, 1).
func newPercentile(q float64) *percentile {
	return &percentile{q: q}
}

func (p *percentile) Predict(*rand.Rand) float64 {
	n := p.recs.Len()
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p.q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return p.recs.RankValue(idx)
}

func (p *percentile) Retry(prev float64, _ *rand.Rand) float64 {
	return tovarRetry(&p.recs, prev)
}

func (p *percentile) Observe(rec record.Record) { p.recs.Add(rec) }

func (p *percentile) Len() int { return p.recs.Len() }
