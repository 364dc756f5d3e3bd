package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
)

func TestPlacementParseRoundTrip(t *testing.T) {
	for _, p := range Placements() {
		got, err := ParsePlacement(p.String())
		if err != nil || got != p {
			t.Errorf("round-trip %v: %v %v", p, got, err)
		}
	}
	if _, err := ParsePlacement("nope"); err == nil {
		t.Error("bad placement should fail to parse")
	}
	if Placement(99).String() == "" {
		t.Error("unknown placement should still stringify")
	}
}

// A run under a placement outside Placements() is refused before it starts,
// naming the placement rather than reporting the deadlock it would cause.
func TestRunRefusesUnknownPlacement(t *testing.T) {
	w, err := workflow.ByName("normal", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		Workflow: w,
		Policy:   allocator.MustNew(allocator.MaxSeen, allocator.Config{}),
		Pool:     opportunistic.Static{N: 4},
		Place:    Placement(99),
	})
	if !errors.Is(err, ErrUnknownPlacement) || !strings.Contains(err.Error(), "Placement(99)") {
		t.Fatalf("Run under Placement(99) = %v, want an error wrapping ErrUnknownPlacement that names it", err)
	}
}

// The robustness claim: the allocator's efficiency is insensitive to the
// placement policy (which only permutes completion order), so AWE across
// policies stays within a few points.
func TestAWERobustAcrossPlacementPolicies(t *testing.T) {
	w, err := workflow.ByName("bimodal", 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	var awes []float64
	for _, p := range Placements() {
		pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: 10})
		res, err := Run(Config{
			Workflow: w,
			Policy:   pol,
			Pool:     opportunistic.Static{N: 10},
			Place:    p,
		})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if len(res.Outcomes) != 300 {
			t.Fatalf("%v: %d outcomes", p, len(res.Outcomes))
		}
		awes = append(awes, res.Acc.AWE(resources.Memory))
	}
	lo, hi := awes[0], awes[0]
	for _, a := range awes {
		lo = math.Min(lo, a)
		hi = math.Max(hi, a)
	}
	if hi-lo > 0.10 {
		t.Errorf("AWE spread across placements = %v (%v); allocator not placement-robust", hi-lo, awes)
	}
}
