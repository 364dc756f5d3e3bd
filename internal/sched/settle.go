package sched

import (
	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
)

// The settle side of the allocation contract (PAPER.md §II-A): every way an
// attempt can end is one transition here, returning what the driver must do
// next. At every step a task is in exactly one of four places: queued, held by
// one worker, escalating (the driver out asking the policy for a bigger
// vector), or terminal. The Task methods are the whole lifecycle for a driver
// with no pool and no queue; the Core methods add the release and queue move.

// Terminal reports whether the task has succeeded or been abandoned.
func (t *Task) Terminal() bool { return t.terminal }

// Failed reports whether the retry limit abandoned the task; its ledger then
// ends in a metrics.Failed marker instead of a Success.
func (t *Task) Failed() bool { return t.failed }

// end records an attempt that ran under the current allocation.
func (t *Task) end(duration float64, status metrics.AttemptStatus) {
	t.Outcome.Attempts = append(t.Outcome.Attempts, metrics.Attempt{Alloc: t.Alloc, Duration: duration, Status: status})
}

// Succeeded records the successful attempt and makes the task terminal. It
// reports whether the driver still owes the policy the task's Observe.
func (t *Task) Succeeded(duration float64) (observe bool) {
	t.end(duration, metrics.Success)
	t.terminal = true
	return t.ClaimObserve()
}

// ClaimObserve reports whether the task's record has yet to reach
// policy.Observe and marks it claimed: whoever sees the success first observes
// it, once. The claim survives a requeue, so a success observed ahead of its
// settling and then lost to an eviction is not observed again on the re-run.
func (t *Task) ClaimObserve() bool {
	owed := !t.observed
	t.observed = true
	return owed
}

// Exhausted records an attempt killed for exceeding its allocation. True
// means retry: the driver calls policy.Retry with t.Alloc and hands the
// escalated vector to Retried. False means the retry limit abandoned the task.
func (t *Task) Exhausted(duration float64, limit int) (retry bool) {
	t.escalating = t.setback(duration, metrics.Exhausted, limit)
	return t.escalating
}

// Evicted records an attempt lost with its worker. The task keeps its
// allocation — an eviction says nothing about its adequacy — and is to be
// requeued, unless the retry limit abandoned it (false).
func (t *Task) Evicted(duration float64, limit int) (requeue bool) {
	return t.setback(duration, metrics.Evicted, limit)
}

// setback records an exhausted or evicted attempt and applies the one
// retry-limit rule: a task with more setbacks than limit is abandoned (false)
// — terminal and failed, its ledger closed with a metrics.Failed marker —
// instead of looping forever on a doomed allocation or a flapping pool. Zero
// retries without bound.
func (t *Task) setback(duration float64, status metrics.AttemptStatus, limit int) bool {
	t.end(duration, status)
	if limit <= 0 {
		return true
	}
	setbacks := 0
	for _, a := range t.Outcome.Attempts {
		if a.Status == metrics.Exhausted || a.Status == metrics.Evicted {
			setbacks++
		}
	}
	if setbacks <= limit {
		return true
	}
	t.end(0, metrics.Failed)
	t.terminal, t.failed = true, true
	return false
}

// Retried installs the escalated vector the policy returned. It reports false
// and changes nothing when no escalation is owed: the task went terminal while
// the driver was out calling the policy, or was never exhausted.
func (t *Task) Retried(next resources.Vector) bool {
	if !t.escalating || t.terminal {
		return false
	}
	t.escalating, t.Alloc = false, next
	return true
}

// RunAlone drives t through its whole lifecycle with no pool and no queue:
// allocate, attempt, escalate and attempt again on an overrun, until the task
// succeeds (and is observed) or the limit abandons it. attempt runs one attempt
// under alloc on the driver's clock and reports how long it held the
// allocation and which kinds it exceeded — none for a success.
func (t *Task) RunAlone(p allocator.Policy, limit int, attempt func(alloc resources.Vector) (duration float64, exceeded []resources.Kind)) {
	t.Alloc, t.HasAlloc = p.Allocate(t.Category, t.ID), true
	for {
		duration, exceeded := attempt(t.Alloc)
		if len(exceeded) == 0 {
			if t.Succeeded(duration) {
				p.Observe(t.Category, t.ID, t.Outcome.Peak, t.Outcome.Runtime)
			}
			return
		}
		if !t.Exhausted(duration, limit) {
			return
		}
		t.Retried(p.Retry(t.Category, t.ID, t.Alloc, exceeded))
	}
}

// Settle ends the attempt w reports for t: a success (Task.Succeeded; owed
// says the Observe is) or, with exceeded, an overrun (Task.Exhausted; owed says
// a Retry is, and the task is in no queue until Retried). settled is false when
// the result is stale and changed nothing: w does not hold t — w was evicted,
// or reported this attempt before.
func (c *Core) Settle(w *Worker, t *Task, duration float64, exceeded bool) (settled, owed bool) {
	if !c.Release(w, t) {
		return false, false
	}
	if exceeded {
		return true, t.Exhausted(duration, c.RetryLimit)
	}
	return true, t.Succeeded(duration)
}

// Retried installs the escalated vector for t (Task.Retried) and puts it at
// the front of the ready queue; it does neither when none is owed.
func (c *Core) Retried(t *Task, next resources.Vector) bool {
	if !t.Retried(next) {
		return false
	}
	c.Ready.PushFront(t)
	c.held++
	return true
}

// Evicted removes w from the ledger at time now and settles every attempt it
// held (Task.Evicted). The survivors go back to the front of the ready queue
// as one block in ascending key order, so multi-task evictions replay
// deterministically; the abandoned do not. It appends the victims to buf in
// ascending key order — the abandoned among them are Terminal.
func (c *Core) Evicted(w *Worker, now float64, buf []*Task) []*Task {
	base := len(buf)
	buf = c.Evict(w, buf)
	c.requeue = c.requeue[:0]
	for _, t := range buf[base:] {
		if t.Evicted(now-t.Started, c.RetryLimit) {
			c.requeue = append(c.requeue, t)
		}
	}
	c.Ready.PushFrontAll(c.requeue)
	c.held += len(c.requeue)
	return buf
}
