package sim

import (
	"errors"

	"dynalloc/internal/names"
	"dynalloc/internal/sched"
)

// Placement selects which worker a dispatchable task lands on; the policies
// are implemented by the scheduler core (see sched.Placement).
type Placement = sched.Placement

// The placement policies, under the names the simulator has always exported.
const (
	FirstFit = sched.FirstFit
	WorstFit = sched.WorstFit
	BestFit  = sched.BestFit
	// Locality requires Config.Data to score workers; without it every worker
	// ties and placement falls back to first-fit order.
	Locality = sched.Locality
)

// Placements returns all placement policies.
func Placements() []Placement { return []Placement{FirstFit, WorstFit, BestFit, Locality} }

// ErrUnknownPlacement is returned (wrapped) when a placement name does not
// match any placement policy. Match it with errors.Is; it completes the
// sentinel taxonomy alongside workflow.ErrUnknownWorkflow and
// allocator.ErrUnknownAlgorithm.
var ErrUnknownPlacement = errors.New("sim: unknown placement policy")

// ParsePlacement converts a placement name to a Placement, following the
// shared Names()/Parse() registry contract: the error wraps
// ErrUnknownPlacement and lists the valid names.
func ParsePlacement(s string) (Placement, error) {
	return names.Parse(s, Placements(), Placement.String, ErrUnknownPlacement)
}
