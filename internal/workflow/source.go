package workflow

import "sort"

// Source is the streaming workload contract: tasks are produced one at a
// time, in submission order, as the consumer asks for them. A driver built
// on a Source never needs to hold the full task set, so workload size stops
// being a memory bound — the paper's "large dynamic workflows" regime
// (millions of tasks) fits in a window of in-flight tasks.
//
// A Source is single-use and not safe for concurrent use: Next advances
// internal generator state. Create a fresh Source per run (the generators
// are cheap to construct; all cost is in the per-task sampling).
type Source interface {
	// Name identifies the workload.
	Name() string
	// Next returns the next task in submission order. ok is false once the
	// workload is exhausted; after that every further call keeps returning
	// ok == false.
	Next() (t Task, ok bool)
	// SubmitWindow mirrors Workflow.SubmitWindow: at most
	// completed + SubmitWindow tasks exist at any instant. Zero means every
	// task is available as soon as its phase is released.
	SubmitWindow() int
	// NextBarrier returns the smallest barrier index strictly greater than
	// after, or -1 when no further barrier exists. A task at index >= b may
	// only start once every task at index < b has completed, exactly as
	// Workflow.Barriers defines.
	NextBarrier(after int) int
}

// stream is the concrete Source behind every workload generator: barrier
// and window metadata known up front, the exact task count, and a fill
// function that generates tasks in batches. fill(dst, first) writes tasks
// first, first+1, ... into dst; it is called with contiguous, ascending
// ranges, so generators are free to keep sequential state (counters, a
// shared random stream). Next serves from a small refill buffer and
// Materialize fills its task slice in one call, so both read the same
// stream: the draws a batch makes depend only on which tasks it covers.
type stream struct {
	name     string
	window   int
	barriers []int // ascending
	n        int   // total tasks
	next     int   // index of the next task fill generates
	fill     func(dst []Task, first int)
	ahead    *readAhead // Next's refill buffer, allocated on its first call
}

// streamBatch is how many tasks Next generates per refill: enough to make
// the per-batch work (resolving a phase, a closure call) vanish per task,
// small enough that a windowed consumer's read-ahead is a few KB.
const streamBatch = 256

// readAhead holds the tasks a stream has generated for Next but not yet
// returned: tasks[pos:end].
type readAhead struct {
	tasks    [streamBatch]Task
	pos, end int
}

func (s *stream) Name() string      { return s.name }
func (s *stream) SubmitWindow() int { return s.window }

func (s *stream) NextBarrier(after int) int {
	return nextBarrier(s.barriers, after)
}

func (s *stream) Next() (Task, bool) {
	b := s.ahead
	if b == nil {
		b = new(readAhead)
		s.ahead = b
	}
	if b.pos == b.end {
		k := min(s.n-s.next, streamBatch)
		if k <= 0 {
			return Task{}, false
		}
		s.take(b.tasks[:k])
		b.pos, b.end = 0, k
	}
	t := b.tasks[b.pos]
	b.pos++
	return t, true
}

// take generates the next len(dst) tasks into dst.
func (s *stream) take(dst []Task) {
	s.fill(dst, s.next)
	s.next += len(dst)
}

// rest returns every task Next has not yet returned, in one allocation:
// the read-ahead tail, then the rest filled in place.
func (s *stream) rest() []Task {
	var ahead []Task
	if b := s.ahead; b != nil {
		ahead = b.tasks[b.pos:b.end]
		b.pos = b.end
	}
	out := make([]Task, len(ahead)+s.n-s.next)
	copy(out, ahead)
	s.take(out[len(ahead):])
	return out
}

// nextBarrier returns the smallest barrier strictly greater than after, or
// -1; barriers must be ascending.
func nextBarrier(barriers []int, after int) int {
	i := sort.SearchInts(barriers, after+1)
	if i == len(barriers) {
		return -1
	}
	return barriers[i]
}

// Cursor adapts an already materialized Workflow to the Source contract, so
// slice-era callers keep working against Source-driven APIs. The workflow
// itself is read shared and never mutated; each Cursor carries its own
// position, so one Workflow may feed many concurrent runs.
type Cursor struct {
	w *Workflow
	i int
}

// Stream returns a fresh Source view over the workflow's tasks.
func (w *Workflow) Stream() *Cursor { return &Cursor{w: w} }

// Name implements Source.
func (c *Cursor) Name() string { return c.w.Name }

// SubmitWindow implements Source.
func (c *Cursor) SubmitWindow() int { return c.w.SubmitWindow }

// NextBarrier implements Source.
func (c *Cursor) NextBarrier(after int) int { return nextBarrier(c.w.Barriers, after) }

// Next implements Source.
func (c *Cursor) Next() (Task, bool) {
	if c.i >= len(c.w.Tasks) {
		return Task{}, false
	}
	t := c.w.Tasks[c.i]
	c.i++
	return t, true
}

// Materialize drains a source into a fully built Workflow. The eager
// generators (ByName, Synthetic, ColmenaXTB, TopEFT) are Materialize over
// the corresponding streaming source, which is what guarantees the lazy and
// eager paths emit bit-identical task streams. When the source is one of
// those generators, the task slice is allocated once at its length and
// filled in one call instead of task by task.
func Materialize(s Source) *Workflow {
	w := &Workflow{Name: s.Name(), SubmitWindow: s.SubmitWindow()}
	for b := s.NextBarrier(0); b > 0; b = s.NextBarrier(b) {
		w.Barriers = append(w.Barriers, b)
	}
	if g, ok := s.(*stream); ok {
		w.Tasks = g.rest()
		return w
	}
	for {
		t, ok := s.Next()
		if !ok {
			break
		}
		w.Tasks = append(w.Tasks, t)
	}
	return w
}

// windowed overrides a source's submit window, leaving everything else
// untouched. It lets a benchmark or caller bound the in-flight task window
// of a generator family whose default submits everything up front.
type windowed struct {
	Source
	window int
}

func (w *windowed) SubmitWindow() int { return w.window }

// WithSubmitWindow returns a Source identical to src except that it reports
// the given submit window. The returned source shares src's generator
// state; do not keep using src directly afterwards.
func WithSubmitWindow(src Source, window int) Source {
	return &windowed{Source: src, window: window}
}

// SourceByName returns the streaming form of any of the seven evaluation
// workloads: the same name set, task streams, barriers, and submit windows
// as ByName, but generated lazily task by task. n scales the synthetic
// families (0 = the paper's 1000); the production workloads have fixed
// task counts.
func SourceByName(name string, n int, seed uint64) (Source, error) {
	switch name {
	case "normal", "uniform", "exponential", "bimodal", "trimodal":
		return syntheticStream(name, n, seed)
	case "colmena":
		return colmenaStream(seed), nil
	case "topeft":
		return topeftStream(seed), nil
	default:
		return nil, unknownWorkflowError(name)
	}
}
