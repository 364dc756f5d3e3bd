package sched

import (
	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
)

// The settle side of the allocation contract (PAPER.md §II-A): every way an
// attempt can end is one transition here, and the transition makes the policy
// call it owes — Observe for a success, Retry for an overrun within the limit.
// At every step a task is in exactly one of three places: queued, held by one
// worker, or terminal. The Task methods are the whole lifecycle for a driver
// with no pool and no queue; the Core methods add the release and queue move.

// Settled is what Settle did with a reported attempt.
type Settled uint8

const (
	// Stale: the worker did not hold the task, and nothing changed.
	Stale Settled = iota
	// Done: the task succeeded and its record has reached policy.Observe.
	Done
	// Requeued: the task overran its allocation and holds the escalated
	// vector policy.Retry returned; Core.Settle put it at the queue's front.
	Requeued
	// Abandoned: the retry limit gave up on the task (Task.Failed).
	Abandoned
)

// Terminal reports whether the task has succeeded or been abandoned.
func (t *Task) Terminal() bool { return t.terminal }

// Failed reports whether the retry limit abandoned the task; its ledger then
// ends in a metrics.Failed marker instead of a Success.
func (t *Task) Failed() bool { return t.failed }

// end records an attempt that ran under the current allocation.
func (t *Task) end(duration float64, status metrics.AttemptStatus) {
	t.Outcome.Attempts = append(t.Outcome.Attempts, metrics.Attempt{Alloc: t.Alloc, Duration: duration, Status: status})
}

// observe hands the task's record to p.Observe unless it has been already:
// whoever sees the success first observes it, once. The mark survives a
// requeue, so a success observed ahead of its settling and then lost to an
// eviction is not observed again on the re-run.
func (t *Task) observe(p allocator.Policy) {
	if !t.observed {
		t.observed = true
		p.Observe(t.Category, t.ID, t.Outcome.Peak, t.Outcome.Runtime)
	}
}

// settle ends the attempt in progress: a success closes the ledger and is
// observed; an overrun (overrun, with the kinds in exceeded) counts against
// limit and, within it, installs the vector p.Retry escalates t.Alloc to.
func (t *Task) settle(p allocator.Policy, limit int, duration float64, overrun bool, exceeded []resources.Kind) Settled {
	if !overrun {
		t.end(duration, metrics.Success)
		t.terminal = true
		t.observe(p)
		return Done
	}
	if !t.setback(duration, metrics.Exhausted, limit) {
		return Abandoned
	}
	t.Alloc = p.Retry(t.Category, t.ID, t.Alloc, exceeded)
	return Requeued
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

// RunAlone drives t through its whole lifecycle with no pool and no queue:
// allocate, attempt, escalate and attempt again on an overrun, until the task
// succeeds (and is observed) or the limit abandons it. attempt runs one attempt
// under alloc on the driver's clock and reports how long it held the
// allocation and which kinds it exceeded — none for a success.
func (t *Task) RunAlone(p allocator.Policy, limit int, attempt func(alloc resources.Vector) (duration float64, exceeded []resources.Kind)) {
	t.Alloc, t.HasAlloc = p.Allocate(t.Category, t.ID), true
	for {
		duration, exceeded := attempt(t.Alloc)
		if t.settle(p, limit, duration, len(exceeded) > 0, exceeded) != Requeued {
			return
		}
	}
}

// Settle ends the attempt w reports for t, a success or, with overrun, an
// overrun of the kinds in exceeded (which may be empty), and makes the policy
// call the ending owes (Task.settle). A requeued task goes to the front of the
// ready queue, ahead of what was already waiting. The result is Stale, and
// nothing changes, when w does not hold t: w was evicted, or reported this
// attempt before.
func (c *Core) Settle(w *Worker, t *Task, duration float64, overrun bool, exceeded []resources.Kind) Settled {
	if !c.Release(w, t) {
		return Stale
	}
	s := t.settle(c.policy, c.RetryLimit, duration, overrun, exceeded)
	if s == Requeued {
		c.Ready.PushFront(t)
		c.held++
	}
	return s
}

// ObserveAhead hands the record of a success w reports for t to
// policy.Observe before the result is settled, so a driver can observe a
// burst's successes together ahead of the dispatch passes that settling them
// runs. It does nothing when w does not hold t — the result is stale — or the
// record has been observed; Settle then observes nothing more.
func (c *Core) ObserveAhead(w *Worker, t *Task) {
	if w.Holds(t) {
		t.observe(c.policy)
	}
}

// Evicted removes w from the ledger at time now and settles every attempt it
// held as lost (metrics.Evicted). The task keeps its allocation — an eviction
// says nothing about its adequacy — and the survivors go back to the front of
// the ready queue as one block in ascending key order, so multi-task evictions
// replay deterministically; the tasks the retry limit abandons do not. It
// appends the victims to buf in ascending key order — the abandoned among
// them are Terminal.
func (c *Core) Evicted(w *Worker, now float64, buf []*Task) []*Task {
	base := len(buf)
	buf = c.Evict(w, buf)
	c.requeue = c.requeue[:0]
	for _, t := range buf[base:] {
		if t.setback(now-t.Started, metrics.Evicted, c.RetryLimit) {
			c.requeue = append(c.requeue, t)
		}
	}
	c.Ready.PushFrontAll(c.requeue)
	c.held += len(c.requeue)
	return buf
}
