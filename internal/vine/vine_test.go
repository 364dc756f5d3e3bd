package vine

import (
	"math"
	"testing"

	"dynalloc/internal/workflow"
)

func TestStageAndCacheHit(t *testing.T) {
	l := NewLayer()
	l.TransferMBps = 100
	l.SetInputs(1, []File{{Name: "env", SizeMB: 500}, {Name: "d1", SizeMB: 50}})
	l.SetInputs(2, []File{{Name: "env", SizeMB: 500}, {Name: "d2", SizeMB: 30}})

	// Cold worker: everything transfers.
	if got := l.Stage(0, 1); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("cold stage = %v s, want 5.5", got)
	}
	// Warm worker: env is cached, only d2 transfers.
	if got := l.Stage(0, 2); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("warm stage = %v s, want 0.3", got)
	}
	// Fully cached task restages for free.
	if got := l.Stage(0, 1); got != 0 {
		t.Errorf("hot stage = %v s, want 0", got)
	}
	if got := l.CacheBytes(0); got != 580 {
		t.Errorf("cache bytes = %v, want 580", got)
	}
}

func TestCachedMBScoresLocality(t *testing.T) {
	l := NewLayer()
	l.SetInputs(1, []File{{Name: "env", SizeMB: 400}, {Name: "d1", SizeMB: 20}})
	l.SetInputs(2, []File{{Name: "env", SizeMB: 400}, {Name: "d2", SizeMB: 20}})
	l.Stage(7, 1)
	if got := l.CachedMB(7, 2); got != 400 {
		t.Errorf("CachedMB = %v, want 400 (shared env)", got)
	}
	if got := l.CachedMB(8, 2); got != 0 {
		t.Errorf("cold worker CachedMB = %v", got)
	}
}

func TestLRUEviction(t *testing.T) {
	l := NewLayer()
	l.CacheMB = 100
	l.SetInputs(1, []File{{Name: "a", SizeMB: 60}})
	l.SetInputs(2, []File{{Name: "b", SizeMB: 60}})
	l.Stage(0, 1) // caches a
	l.Stage(0, 2) // evicts a to fit b
	if l.CachedMB(0, 1) != 0 {
		t.Error("LRU victim still cached")
	}
	if l.CachedMB(0, 2) != 60 {
		t.Error("new file not cached")
	}
	// A file bigger than the whole cache is streamed, not cached.
	l.SetInputs(3, []File{{Name: "huge", SizeMB: 500}})
	delay := l.Stage(0, 3)
	if delay <= 0 {
		t.Error("huge file should still cost transfer time")
	}
	if l.CachedMB(0, 3) != 0 {
		t.Error("uncacheable file was cached")
	}
}

func TestLRUOrderRespectsTouches(t *testing.T) {
	l := NewLayer()
	l.CacheMB = 120
	l.SetInputs(1, []File{{Name: "a", SizeMB: 60}})
	l.SetInputs(2, []File{{Name: "b", SizeMB: 60}})
	l.SetInputs(3, []File{{Name: "c", SizeMB: 60}})
	l.Stage(0, 1)
	l.Stage(0, 2)
	l.Stage(0, 1) // touch a: now b is the LRU
	l.Stage(0, 3) // evicts b
	if l.CachedMB(0, 1) != 60 {
		t.Error("recently touched file evicted")
	}
	if l.CachedMB(0, 2) != 0 {
		t.Error("LRU file survived")
	}
}

func TestDropWorker(t *testing.T) {
	l := NewLayer()
	l.SetInputs(1, []File{{Name: "a", SizeMB: 10}})
	l.Stage(3, 1)
	l.DropWorker(3)
	if l.CacheBytes(3) != 0 || l.CachedMB(3, 1) != 0 {
		t.Error("dropped worker retained cache")
	}
}

func TestZeroBandwidth(t *testing.T) {
	l := NewLayer()
	l.TransferMBps = 0
	l.SetInputs(1, []File{{Name: "a", SizeMB: 10}})
	if got := l.Stage(0, 1); got != 0 {
		t.Errorf("zero-bandwidth stage = %v", got)
	}
}

func TestAttachShape(t *testing.T) {
	w, err := workflow.ByName("topeft", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayer()
	Attach(l, w, 2)
	// Every task has an env file shared with its category plus a unique
	// data file.
	envSeen := map[string]float64{}
	for _, task := range w.Tasks {
		inputs := l.Inputs(task.ID)
		if len(inputs) != 2 {
			t.Fatalf("task %d has %d inputs", task.ID, len(inputs))
		}
		env := inputs[0]
		if envSeen[task.Category] == 0 {
			envSeen[task.Category] = env.SizeMB
		} else if envSeen[task.Category] != env.SizeMB {
			t.Fatalf("category %s env size changed", task.Category)
		}
		if env.SizeMB < 200 || env.SizeMB > 800 {
			t.Fatalf("env size %v out of range", env.SizeMB)
		}
		if inputs[1].SizeMB < 5 || inputs[1].SizeMB > 50 {
			t.Fatalf("data size %v out of range", inputs[1].SizeMB)
		}
		if l.InputMB(task.ID) != env.SizeMB+inputs[1].SizeMB {
			t.Fatal("InputMB mismatch")
		}
	}
	if len(envSeen) != 3 {
		t.Errorf("expected 3 category env files, got %d", len(envSeen))
	}
	// Deterministic.
	l2 := NewLayer()
	Attach(l2, w, 2)
	if l2.InputMB(1) != l.InputMB(1) {
		t.Error("Attach not deterministic")
	}
}

// BenchmarkDataLayer_Staging is the staging cost of a full TopEFT run's
// worth of tasks spread over 30 workers.
func BenchmarkDataLayer_Staging(b *testing.B) {
	w, err := workflow.ByName("topeft", 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		layer := NewLayer()
		Attach(layer, w, uint64(i))
		for _, t := range w.Tasks {
			layer.Stage(t.ID%30, t.ID)
		}
	}
}
