package workflow

import (
	"errors"
	"math"
	"testing"

	"dynalloc/internal/resources"
)

func meanOf(w *Workflow, cat string, k resources.Kind) float64 {
	sum, n := 0.0, 0
	for _, t := range w.Tasks {
		if cat == "" || t.Category == cat {
			sum += t.Consumption.Get(k)
			n++
		}
	}
	return sum / float64(n)
}

func TestAllWorkloadsValidateOnPaperWorker(t *testing.T) {
	for _, name := range Names() {
		w, err := ByName(name, 0, 1)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if err := w.Validate(resources.PaperWorker()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", 0, 1); !errors.Is(err, ErrUnknownWorkflow) {
		t.Errorf("ByName(nope) = %v, want ErrUnknownWorkflow", err)
	}
	if _, err := Synthetic("nope", 10, 1); !errors.Is(err, ErrUnknownWorkflow) {
		t.Errorf("Synthetic(nope) = %v, want ErrUnknownWorkflow", err)
	}
}

func TestSyntheticTaskCounts(t *testing.T) {
	for _, name := range SyntheticNames() {
		w, err := Synthetic(name, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if w.Len() != DefaultSyntheticTasks {
			t.Errorf("%s: %d tasks, want %d", name, w.Len(), DefaultSyntheticTasks)
		}
		if cats := w.Categories(); len(cats) != 1 {
			t.Errorf("%s: categories = %v, want a single category", name, cats)
		}
		w2, _ := Synthetic(name, 250, 2)
		if w2.Len() != 250 {
			t.Errorf("%s: explicit n ignored, got %d tasks", name, w2.Len())
		}
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a, _ := Synthetic("normal", 100, 7)
	b, _ := Synthetic("normal", 100, 7)
	for i := range a.Tasks {
		if a.Tasks[i].Consumption != b.Tasks[i].Consumption {
			t.Fatalf("task %d diverged between identically seeded runs", i)
		}
	}
	c, _ := Synthetic("normal", 100, 8)
	if a.Tasks[0].Consumption == c.Tasks[0].Consumption {
		t.Error("different seeds produced identical first tasks")
	}
}

func TestSyntheticDistributionShapes(t *testing.T) {
	// Means of the memory series should sit near the configured family
	// centers (Figure 4 magnitudes).
	want := map[string]float64{
		"normal":      8000,
		"uniform":     7000,
		"exponential": 5000,
		"bimodal":     6000,
		"trimodal":    5340, // (3000 + 8000 + 5000) / 3, weighted by thirds
	}
	for name, m := range want {
		w, _ := Synthetic(name, 3000, 3)
		got := meanOf(w, "", resources.Memory)
		if math.Abs(got-m) > m*0.08 {
			t.Errorf("%s memory mean = %v, want ~%v", name, got, m)
		}
	}
}

func TestTrimodalPhasesMove(t *testing.T) {
	w, _ := Synthetic("trimodal", 900, 4)
	if len(w.Barriers) != 2 || w.Barriers[0] != 300 || w.Barriers[1] != 600 {
		t.Fatalf("trimodal barriers = %v", w.Barriers)
	}
	phaseMean := func(lo, hi int) float64 {
		sum := 0.0
		for _, t := range w.Tasks[lo:hi] {
			sum += t.Consumption.Get(resources.Memory)
		}
		return sum / float64(hi-lo)
	}
	p1, p2, p3 := phaseMean(0, 300), phaseMean(300, 600), phaseMean(600, 900)
	if math.Abs(p1-3000) > 300 || math.Abs(p2-8000) > 500 || math.Abs(p3-5000) > 400 {
		t.Errorf("phase means = %v, %v, %v; want ~3000, ~8000, ~5000", p1, p2, p3)
	}
	if w.PhaseOf(0) != 0 || w.PhaseOf(299) != 0 || w.PhaseOf(300) != 1 || w.PhaseOf(600) != 2 {
		t.Error("PhaseOf does not respect barriers")
	}
}

func TestColmenaStructure(t *testing.T) {
	w := ColmenaXTB(5)
	counts := w.CategoryCounts()
	if counts["evaluate_mpnn"] != ColmenaEvaluateTasks {
		t.Errorf("evaluate_mpnn count = %d, want %d", counts["evaluate_mpnn"], ColmenaEvaluateTasks)
	}
	if counts["compute_atomization_energy"] != ColmenaComputeTasks {
		t.Errorf("compute count = %d, want %d", counts["compute_atomization_energy"], ColmenaComputeTasks)
	}
	if len(w.Barriers) != 1 || w.Barriers[0] != ColmenaEvaluateTasks {
		t.Errorf("barriers = %v", w.Barriers)
	}
	// Phase 1 memory 1.0-1.2 GB, phase 2 ~200 MB (Section III-B).
	evalMem := meanOf(w, "evaluate_mpnn", resources.Memory)
	if evalMem < 1000 || evalMem > 1200 {
		t.Errorf("evaluate_mpnn memory mean = %v, want in [1000, 1200]", evalMem)
	}
	compMem := meanOf(w, "compute_atomization_energy", resources.Memory)
	if math.Abs(compMem-200) > 30 {
		t.Errorf("compute memory mean = %v, want ~200", compMem)
	}
	// compute cores span 0.9-3.6.
	minC, maxC := math.Inf(1), math.Inf(-1)
	for _, task := range w.Tasks[ColmenaEvaluateTasks:] {
		c := task.Consumption.Get(resources.Cores)
		minC = math.Min(minC, c)
		maxC = math.Max(maxC, c)
	}
	if minC < 0.9 || maxC > 3.6 {
		t.Errorf("compute cores range [%v, %v], want within [0.9, 3.6]", minC, maxC)
	}
	if maxC-minC < 2 {
		t.Errorf("compute cores should be highly variable, range %v", maxC-minC)
	}
	// Disk hovers around 10 MB across the workflow.
	disk := meanOf(w, "", resources.Disk)
	if math.Abs(disk-10) > 3 {
		t.Errorf("colmena disk mean = %v, want ~10", disk)
	}
}

func TestTopEFTStructure(t *testing.T) {
	w := TopEFT(6)
	counts := w.CategoryCounts()
	if counts["preprocessing"] != TopEFTPreprocessTasks ||
		counts["processing"] != TopEFTProcessTasks ||
		counts["accumulating"] != TopEFTAccumulateTasks {
		t.Fatalf("category counts = %v", counts)
	}
	if w.Len() != TopEFTPreprocessTasks+TopEFTProcessTasks+TopEFTAccumulateTasks {
		t.Errorf("total tasks = %d", w.Len())
	}
	// Disk is the paper's constant 306 MB for every task.
	for _, task := range w.Tasks {
		if task.Consumption.Get(resources.Disk) != 306 {
			t.Fatalf("task %d disk = %v, want 306", task.ID, task.Consumption.Get(resources.Disk))
		}
	}
	// Preprocessing and accumulating memory ~180 MB; processing memory is
	// two clusters around 450 and 580 MB.
	if m := meanOf(w, "preprocessing", resources.Memory); math.Abs(m-180) > 15 {
		t.Errorf("preprocessing memory mean = %v, want ~180", m)
	}
	if m := meanOf(w, "accumulating", resources.Memory); math.Abs(m-185) > 15 {
		t.Errorf("accumulating memory mean = %v, want ~185", m)
	}
	lo, hi := 0, 0
	for _, task := range w.Tasks {
		if task.Category != "processing" {
			continue
		}
		m := task.Consumption.Get(resources.Memory)
		switch {
		case math.Abs(m-450) < 60:
			lo++
		case math.Abs(m-580) < 60:
			hi++
		default:
			t.Fatalf("processing memory %v outside both clusters", m)
		}
	}
	if lo == 0 || hi == 0 {
		t.Error("processing memory should form two clusters")
	}
	// Core outliers exist but are rare and bounded by 3.
	outliers := 0
	for _, task := range w.Tasks {
		c := task.Consumption.Get(resources.Cores)
		if c > 3.0 {
			t.Fatalf("core consumption %v exceeds the paper's ~3-core outliers", c)
		}
		if c > 1.0 {
			outliers++
		}
	}
	frac := float64(outliers) / float64(w.Len())
	if frac == 0 || frac > 0.1 {
		t.Errorf("core outlier fraction = %v, want small but non-zero", frac)
	}
	// Interleaving: accumulating tasks appear between processing tasks,
	// not only at the end.
	firstAcc := -1
	for i, task := range w.Tasks {
		if task.Category == "accumulating" {
			firstAcc = i
			break
		}
	}
	if firstAcc < 0 || firstAcc > TopEFTPreprocessTasks+2*topEFTAccumulateSpacing {
		t.Errorf("first accumulating task at index %d; interleaving broken", firstAcc)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good, _ := Synthetic("normal", 10, 1)
	worker := resources.PaperWorker()

	w := *good
	w.Tasks = append([]Task(nil), good.Tasks...)
	w.Tasks[3].ID = 99
	if err := w.Validate(worker); err == nil {
		t.Error("bad ID not caught")
	}

	w.Tasks = append([]Task(nil), good.Tasks...)
	w.Tasks[0].Consumption = w.Tasks[0].Consumption.With(resources.Time, 0)
	if err := w.Validate(worker); err == nil {
		t.Error("zero runtime not caught")
	}

	w.Tasks = append([]Task(nil), good.Tasks...)
	w.Tasks[0].Consumption = w.Tasks[0].Consumption.With(resources.Memory, 1e9)
	if err := w.Validate(worker); err == nil {
		t.Error("infeasible memory not caught")
	}

	w.Tasks = append([]Task(nil), good.Tasks...)
	w.Tasks[0].Category = ""
	if err := w.Validate(worker); err == nil {
		t.Error("empty category not caught")
	}

	w.Tasks = append([]Task(nil), good.Tasks...)
	w.Barriers = []int{0}
	if err := w.Validate(worker); err == nil {
		t.Error("invalid barrier not caught")
	}
}

func TestTaskHelpers(t *testing.T) {
	task := Task{ID: 1, Category: "c", Consumption: resources.New(2, 100, 50, 60)}
	if task.Runtime() != 60 {
		t.Errorf("Runtime = %v", task.Runtime())
	}
	if p := task.Peak(); p.Get(resources.Cores) != 2 || p.Get(resources.Time) != 60 {
		t.Errorf("Peak = %v", p)
	}
}

func TestLargeWorkflowGeneration(t *testing.T) {
	// Future-work scale (Section VII): >10,000-task synthetic workflows.
	w, err := Synthetic("bimodal", 20000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 20000 {
		t.Fatalf("got %d tasks", w.Len())
	}
	if err := w.Validate(resources.PaperWorker()); err != nil {
		t.Error(err)
	}
}

// BenchmarkSynthetic100k measures eager generation of one large workflow:
// the sampling plus the one task-slice allocation.
func BenchmarkSynthetic100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Synthetic("uniform", 100000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures eager generation of every family — the five
// synthetic ones at 100 000 tasks, ColmenaXTB and TopEFT at their fixed
// counts — plus the lazy path: draining the uniform source through Next.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ByName(name, 100000, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("uniform-next", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src, err := SourceByName("uniform", 100000, 1)
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, ok := src.Next(); !ok {
					break
				}
			}
		}
	})
}

// TestSyntheticAllocatesOnce pins that eager generation sizes its task
// slice from the length the stream knows: a 100x larger workflow costs no
// more allocations, where appending task by task adds one per regrowth.
func TestSyntheticAllocatesOnce(t *testing.T) {
	allocs := func(name string, n int) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := Synthetic(name, n, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, name := range []string{"uniform", "trimodal"} {
		if small, large := allocs(name, 1000), allocs(name, 100000); small != large {
			t.Errorf("Synthetic(%q): %v allocations at 1 000 tasks, %v at 100 000; want equal", name, small, large)
		}
	}
}
