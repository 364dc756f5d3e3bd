package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
)

func TestRunGridReplicated(t *testing.T) {
	opts := Options{
		Seed:       1,
		Tasks:      40,
		Workloads:  []string{"normal"},
		Algorithms: []allocator.Name{allocator.MaxSeen, allocator.Greedy},
	}
	cells, err := RunGridReplicatedContext(context.Background(), opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells", len(cells))
	}
	for _, c := range cells {
		s := c.AWE[resources.Memory]
		if s.N != 3 {
			t.Errorf("%s: %d samples, want 3", c.Algorithm, s.N)
		}
		if s.Mean <= 0 || s.Mean > 1 {
			t.Errorf("%s: mean AWE = %v", c.Algorithm, s.Mean)
		}
		if s.Min > s.Mean || s.Max < s.Mean {
			t.Errorf("%s: inconsistent summary %+v", c.Algorithm, s)
		}
		if c.Retries.N != 3 {
			t.Errorf("%s: retries summary %+v", c.Algorithm, c.Retries)
		}
	}
	var buf bytes.Buffer
	if err := ReplicatedTable(cells, opts, resources.Memory, 3).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "±") || !strings.Contains(out, "normal") {
		t.Errorf("replicated table malformed:\n%s", out)
	}
}

func TestRunGridReplicatedDefaultsToOneSeed(t *testing.T) {
	opts := Options{Seed: 2, Tasks: 20, Workloads: []string{"uniform"},
		Algorithms: []allocator.Name{allocator.WholeMachine}}
	cells, err := RunGridReplicatedContext(context.Background(), opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].AWE[resources.Cores].N != 1 {
		t.Errorf("sample count = %d", cells[0].AWE[resources.Cores].N)
	}
}

func TestRunGridReplicatedPropagatesErrors(t *testing.T) {
	if _, err := RunGridReplicatedContext(context.Background(), Options{Workloads: []string{"bogus"}}, 2); err == nil {
		t.Error("bad workload should fail")
	}
}
