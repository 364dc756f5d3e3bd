package allocator

import "dynalloc/internal/resources"

// StablePolicy is an optional capability of a Policy. AllocateStable has the
// result and effects of Allocate; stable reports that every further Allocate
// for this category returns this vector, for any task, and consumes no
// randomness, until the policy's next Observe or reset. The engines find it
// by type assertion on the Policy they were given: a wrapper that embeds the
// Policy interface hides it and sees every call, one that embeds the concrete
// *Allocator and overrides Allocate has AllocateStable promoted past its
// override and is bypassed. Embed the interface.
type StablePolicy interface {
	AllocateStable(category string, taskID int) (alloc resources.Vector, stable bool)
}

// PassMemo serves the first-attempt allocations of one dispatch pass. A pass
// places queued tasks in order against capacity that only shrinks, so a
// stable category needs one policy call per pass, and once its vector has fit
// no worker no later first attempt of the category can be placed either. The
// memo is a handful of per-category entries searched linearly, emptied by
// Begin; categories past its capacity get one policy call per task, as do
// unstable ones. The zero value is ready for Begin.
type PassMemo struct {
	policy  Policy
	stable  StablePolicy // nil when policy lacks the capability
	entries [8]passEntry
	n       int // entries in use
}

type passEntry struct {
	category string
	alloc    resources.Vector
	missed   bool
}

// Begin starts a new pass over the policy the engine dispatches with.
func (m *PassMemo) Begin(p Policy) {
	m.policy = p
	m.stable, _ = p.(StablePolicy)
	m.n = 0
}

func (m *PassMemo) find(category string) *passEntry {
	for i := range m.entries[:m.n] {
		if m.entries[i].category == category {
			return &m.entries[i]
		}
	}
	return nil
}

// Allocate returns the first-attempt allocation for a task. ok is false when
// the category is stable and its vector already failed to place in this pass:
// the task stays queued without a policy call or a placement probe.
func (m *PassMemo) Allocate(category string, taskID int) (alloc resources.Vector, ok bool) {
	if m.stable == nil {
		return m.policy.Allocate(category, taskID), true
	}
	if e := m.find(category); e != nil {
		return e.alloc, !e.missed
	}
	alloc, stable := m.stable.AllocateStable(category, taskID)
	if stable && m.n < len(m.entries) {
		m.entries[m.n] = passEntry{category: category, alloc: alloc}
		m.n++
	}
	return alloc, true
}

// Missed records that the vector Allocate returned for category fit no
// worker; it does nothing for a category that is not stable.
func (m *PassMemo) Missed(category string) {
	if e := m.find(category); e != nil {
		e.missed = true
	}
}
