package trace

import (
	"bytes"
	"strings"
	"testing"

	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
)

func sample(t *testing.T) *workflow.Workflow {
	t.Helper()
	w, err := workflow.Synthetic("bimodal", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPoints(t *testing.T) {
	w := sample(t)
	pts := Points(w)
	if len(pts) != 50 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		task := w.Tasks[i]
		if p.ID != task.ID || p.Category != task.Category {
			t.Fatalf("point %d identity mismatch", i)
		}
		if p.MemoryMB != task.Consumption.Get(resources.Memory) {
			t.Fatalf("point %d memory mismatch", i)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	w := sample(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, Points(w)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 51 {
		t.Fatalf("got %d lines, want header + 50", len(lines))
	}
	if !strings.HasPrefix(lines[0], "id,category,cores,memory_mb") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,bimodal,") {
		t.Errorf("first row = %q", lines[1])
	}
}

func TestWorkflowRoundTrip(t *testing.T) {
	w, err := workflow.ByName("colmena", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteWorkflow(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkflow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != w.Name || len(got.Tasks) != len(w.Tasks) {
		t.Fatalf("round-trip shape mismatch: %s/%d", got.Name, len(got.Tasks))
	}
	if len(got.Barriers) != 1 || got.Barriers[0] != w.Barriers[0] {
		t.Errorf("barriers = %v, want %v", got.Barriers, w.Barriers)
	}
	for i := range w.Tasks {
		if got.Tasks[i].ID != w.Tasks[i].ID ||
			got.Tasks[i].Category != w.Tasks[i].Category ||
			got.Tasks[i].Consumption != w.Tasks[i].Consumption {
			t.Fatalf("task %d mismatch: %+v vs %+v", i, got.Tasks[i], w.Tasks[i])
		}
	}
	if err := got.Validate(resources.PaperWorker()); err != nil {
		t.Errorf("round-tripped workflow invalid: %v", err)
	}
}

func TestReadWorkflowFillsMissingIDs(t *testing.T) {
	in := `{"name":"x","tasks":[
		{"category":"a","cores":1,"memory_mb":10,"disk_mb":5,"time_s":1},
		{"category":"a","cores":1,"memory_mb":20,"disk_mb":5,"time_s":1}]}`
	w, err := ReadWorkflow(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w.Tasks[0].ID != 1 || w.Tasks[1].ID != 2 {
		t.Errorf("IDs = %d, %d", w.Tasks[0].ID, w.Tasks[1].ID)
	}
}

func TestReadWorkflowBadJSON(t *testing.T) {
	if _, err := ReadWorkflow(strings.NewReader("{nope")); err == nil {
		t.Error("bad JSON should error")
	}
}

// TestReadWorkflowAllocatesOnce pins that ReadWorkflow sizes its task slice
// from the decoded length: converting a decoded file 100x larger costs no
// more allocations. (The JSON decoding before it allocates per task and is
// not measured.)
func TestReadWorkflowAllocatesOnce(t *testing.T) {
	allocs := func(n int) float64 {
		w, err := workflow.Synthetic("uniform", n, 1)
		if err != nil {
			t.Fatal(err)
		}
		file := File{Name: w.Name, Tasks: Points(w)}
		return testing.AllocsPerRun(2, func() { file.workflow() })
	}
	if small, large := allocs(1000), allocs(100000); small != large {
		t.Errorf("ReadWorkflow's conversion allocates %v times at 1 000 tasks, %v at 100 000; want equal", small, large)
	}
}
