package main

import (
	"sync"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/core"
	"dynalloc/internal/dist"
	"dynalloc/internal/record"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
)

// sampleEvery is the sampling period of the per-call timers on layers that
// are called far more often than once per task.
const sampleEvery = 64

// observation is one Observe call as the policy saw it, with the number of
// prediction calls (Allocate + Retry) that ran since the previous Observe.
// The stream is what the layer replay feeds through core.State.
type observation struct {
	taskID   int
	peak     resources.Vector
	runtime  float64
	predicts uint64
}

// tracedPolicy decorates a Policy from outside: it counts every call, times
// one in sampleEvery, logs the Observe stream, and records the sampled calls
// as spans. Installed on traced runs only.
type tracedPolicy struct {
	inner allocator.Policy
	start time.Time
	sink  *spanSink

	allocate, retry, observe sampledTimer

	mu       sync.Mutex
	predicts uint64 // Allocate + Retry calls counted at the last Observe
	log      []observation
}

func newTracedPolicy(inner allocator.Policy, start time.Time, sink *spanSink) *tracedPolicy {
	p := &tracedPolicy{inner: inner, start: start, sink: sink}
	p.allocate.every, p.retry.every, p.observe.every = sampleEvery, sampleEvery, sampleEvery
	return p
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) span(name string, taskID int, t0, t1 time.Time) {
	p.sink.add(span{Name: name, ID: taskID, Parent: "task",
		StartNS: t0.Sub(p.start).Nanoseconds(), EndNS: t1.Sub(p.start).Nanoseconds()})
}

func (p *tracedPolicy) Allocate(category string, taskID int) resources.Vector {
	t0, timed := p.allocate.begin()
	v := p.inner.Allocate(category, taskID)
	if timed {
		p.span("allocator.allocate", taskID, t0, p.allocate.end(t0))
	}
	return v
}

func (p *tracedPolicy) Retry(category string, taskID int, prev resources.Vector, exceeded []resources.Kind) resources.Vector {
	t0, timed := p.retry.begin()
	v := p.inner.Retry(category, taskID, prev, exceeded)
	if timed {
		p.span("allocator.retry", taskID, t0, p.retry.end(t0))
	}
	return v
}

func (p *tracedPolicy) Observe(category string, taskID int, peak resources.Vector, runtime float64) {
	t0, timed := p.observe.begin()
	p.inner.Observe(category, taskID, peak, runtime)
	if timed {
		p.span("allocator.observe", taskID, t0, p.observe.end(t0))
	}
	p.mu.Lock()
	predicts := p.allocate.calls.Load() + p.retry.calls.Load()
	p.log = append(p.log, observation{taskID: taskID, peak: peak, runtime: runtime, predicts: predicts - p.predicts})
	p.predicts = predicts
	p.mu.Unlock()
}

// layerMetrics fills the allocator.* per-layer metrics of a round that
// completed `tasks` tasks in wall seconds.
func (p *tracedPolicy) layerMetrics(m map[string]float64, tasks int, wall float64) {
	m["allocator.allocate_calls"] = p.allocate.count()
	m["allocator.allocate_busy_s"] = p.allocate.busy()
	m["allocator.allocate_p50_us"] = p.allocate.percentileUS(50)
	m["allocator.allocate_p99_us"] = p.allocate.percentileUS(99)
	m["allocator.retry_calls"] = p.retry.count()
	m["allocator.retry_busy_s"] = p.retry.busy()
	m["allocator.observe_calls"] = p.observe.count()
	m["allocator.observe_busy_s"] = p.observe.busy()
	m["allocator.allocates_per_task"] = p.allocate.count() / float64(tasks)
	m["allocator.retries_per_task"] = p.retry.count() / float64(tasks)
	m["allocator.busy_share"] = (p.allocate.busy() + p.retry.busy() + p.observe.busy()) / wall
}

// coreAlgorithm maps an allocator name to the bucketing algorithm behind it,
// or nil when the allocator does not partition records (max-seen and the
// other baselines bypass internal/core entirely).
func coreAlgorithm(alg allocator.Name) core.Algorithm {
	switch alg {
	case allocator.Greedy:
		return core.GreedyBucketing{}
	case allocator.Exhaustive:
		return core.ExhaustiveBucketing{}
	}
	return nil
}

// replayLayers is the single-threaded layer replay: it feeds a run's Observe
// stream through one core.State per allocated resource kind — as the
// allocator does — recomputing wherever the run predicted between two
// observations, and times the three steps a recompute is made of separately:
// the sorted-record rebuild (record), the partition and bucket build (core),
// and a prediction on the clean state (core). It attributes the in-situ
// recompute cost to layers the allocator's own telemetry lumps together.
func replayLayers(m map[string]float64, alg core.Algorithm, log []observation) {
	if alg == nil {
		return
	}
	var rebuild, partition, predict time.Duration
	rng := dist.NewRand(1)
	for _, k := range resources.AllocatedKinds() {
		st := core.NewState(alg)
		for i, o := range log {
			if o.predicts > 0 && st.Len() > 0 {
				t0 := time.Now()
				st.Records().View()
				t1 := time.Now()
				st.Buckets()
				t2 := time.Now()
				rebuild += t1.Sub(t0)
				partition += t2.Sub(t1)
				if i%sampleEvery == 0 {
					// One clean-state Predict is ~50 ns, below the clock's
					// resolution: time a batch and scale to the calls the
					// sampled observations stand for.
					const batch = 16
					for j := 0; j < batch; j++ {
						st.Predict(rng)
					}
					predict += time.Duration(float64(time.Since(t2)) / batch * float64(o.predicts) * sampleEvery)
				}
			}
			st.Add(record.Record{TaskID: o.taskID, Value: o.peak.Get(k), Sig: float64(o.taskID), Time: o.runtime})
		}
	}
	m["record.rebuild_busy_s"] = rebuild.Seconds()
	m["core.partition_busy_s"] = partition.Seconds()
	m["core.predict_busy_s"] = predict.Seconds()
}

// coreMetrics reads the bucketing telemetry the allocator kept during the
// run itself (Table I of the paper): recompute count and in-situ time,
// summed over categories and kinds.
func coreMetrics(m map[string]float64, a *allocator.Allocator, category string, observes float64) {
	recomputes, maxBuckets, busy := 0, 0, time.Duration(0)
	for _, kinds := range a.BucketStats() {
		for _, s := range kinds {
			recomputes += s.Recomputes
			busy += s.RecomputeTime
			if s.MaxBuckets > maxBuckets {
				maxBuckets = s.MaxBuckets
			}
		}
	}
	m["core.recomputes"] = float64(recomputes)
	m["core.recompute_busy_s"] = busy.Seconds()
	m["core.max_buckets"] = float64(maxBuckets)
	if n := observes * float64(len(resources.AllocatedKinds())); n > 0 {
		// Every observation lands in one state per allocated kind.
		m["core.recomputes_per_observe"] = float64(recomputes) / n
	}
	m["record.records_final"] = float64(a.Records(category))
}

// tracedSource decorates a workflow.Source: it counts Next calls, times one
// in sampleEvery, and stamps the wall-clock time each task was pulled, which
// is where a simulated task's latency starts.
type tracedSource struct {
	workflow.Source
	next   sampledTimer
	pulled []time.Time // indexed by task ID − 1
	timed  bool
}

func (s *tracedSource) Next() (workflow.Task, bool) {
	var t0 time.Time
	var timed bool
	if s.timed {
		t0, timed = s.next.begin()
	}
	t, ok := s.Source.Next()
	if ok {
		now := time.Now()
		if timed {
			now = s.next.end(t0)
		}
		if i := t.ID - 1; i >= 0 && i < len(s.pulled) {
			s.pulled[i] = now
		}
	}
	return t, ok
}
