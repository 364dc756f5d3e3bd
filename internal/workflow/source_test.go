package workflow

import (
	"errors"
	"testing"
)

// TestSourceByNameMatchesByName is the foundation of the streaming API: the
// lazy sources must emit exactly the task stream the eager generators
// return — same IDs, categories, and consumption bits — along with the same
// barrier and window metadata. (ByName is Materialize over these sources,
// so this guards the contract from both sides.)
func TestSourceByNameMatchesByName(t *testing.T) {
	for _, name := range Names() {
		for _, seed := range []uint64{0, 1, 99} {
			eager, err := ByName(name, 300, seed)
			if err != nil {
				t.Fatal(err)
			}
			src, err := SourceByName(name, 300, seed)
			if err != nil {
				t.Fatal(err)
			}
			lazy := Materialize(src)
			if lazy.Name != eager.Name || lazy.SubmitWindow != eager.SubmitWindow {
				t.Fatalf("%s/seed%d: metadata diverged: %q/%d vs %q/%d",
					name, seed, lazy.Name, lazy.SubmitWindow, eager.Name, eager.SubmitWindow)
			}
			if len(lazy.Barriers) != len(eager.Barriers) {
				t.Fatalf("%s/seed%d: barriers diverged: %v vs %v", name, seed, lazy.Barriers, eager.Barriers)
			}
			for i := range lazy.Barriers {
				if lazy.Barriers[i] != eager.Barriers[i] {
					t.Fatalf("%s/seed%d: barrier %d diverged", name, seed, i)
				}
			}
			if len(lazy.Tasks) != len(eager.Tasks) {
				t.Fatalf("%s/seed%d: %d vs %d tasks", name, seed, len(lazy.Tasks), len(eager.Tasks))
			}
			for i := range lazy.Tasks {
				if lazy.Tasks[i] != eager.Tasks[i] {
					t.Fatalf("%s/seed%d: task %d diverged: %+v vs %+v",
						name, seed, i, lazy.Tasks[i], eager.Tasks[i])
				}
			}
		}
	}
}

func TestSourceByNameUnknown(t *testing.T) {
	_, err := SourceByName("nope", 0, 0)
	if !errors.Is(err, ErrUnknownWorkflow) {
		t.Errorf("err = %v, want ErrUnknownWorkflow", err)
	}
}

func TestCursorIsIndependentPerStream(t *testing.T) {
	w, err := Synthetic("normal", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.Stream(), w.Stream()
	ta, _ := a.Next()
	tb, ok := b.Next()
	if !ok || ta != tb {
		t.Fatal("fresh cursors must restart from the beginning")
	}
	n := 1
	for {
		if _, ok := a.Next(); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Errorf("cursor yielded %d tasks", n)
	}
	if _, ok := a.Next(); ok {
		t.Error("exhausted cursor yielded a task")
	}
	if b.SubmitWindow() != w.SubmitWindow || b.Name() != w.Name {
		t.Error("cursor metadata diverged")
	}
}

func TestNextBarrierContract(t *testing.T) {
	w := &Workflow{Name: "x", Barriers: []int{3, 7, 9}}
	c := w.Stream()
	for _, tc := range []struct{ after, want int }{
		{0, 3}, {2, 3}, {3, 7}, {6, 7}, {7, 9}, {8, 9}, {9, -1}, {100, -1},
	} {
		if got := c.NextBarrier(tc.after); got != tc.want {
			t.Errorf("NextBarrier(%d) = %d, want %d", tc.after, got, tc.want)
		}
	}
	if got := (&Workflow{}).Stream().NextBarrier(0); got != -1 {
		t.Errorf("barrier-free NextBarrier(0) = %d", got)
	}
}

func TestWithSubmitWindow(t *testing.T) {
	src, err := SourceByName("uniform", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	win := WithSubmitWindow(src, 4)
	if win.SubmitWindow() != 4 {
		t.Errorf("window = %d", win.SubmitWindow())
	}
	if win.Name() != src.Name() {
		t.Error("name not forwarded")
	}
	got := Materialize(win)
	if got.SubmitWindow != 4 || len(got.Tasks) != 20 {
		t.Errorf("materialized: window=%d tasks=%d", got.SubmitWindow, len(got.Tasks))
	}
}

// TestSourceNextAllocatesNothing pins that streaming costs no allocation
// per task: once a source has its refill buffer, Next reuses it for every
// batch.
func TestSourceNextAllocatesNothing(t *testing.T) {
	for _, name := range Names() {
		src, err := SourceByName(name, 1000000, 1)
		if err != nil {
			t.Fatal(err)
		}
		src.Next()
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, ok := src.Next(); !ok {
				t.Fatal("stream ended early")
			}
		}); allocs != 0 {
			t.Errorf("%s: Next allocates %v times per call", name, allocs)
		}
	}
}
