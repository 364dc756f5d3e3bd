// Package resources defines the resource model shared by every component of
// the dynalloc reproduction: the resource kinds tracked by the paper (cores,
// memory, disk, execution time), fixed-size vectors over those kinds, and the
// comparison operations used to decide whether a task's consumption fits
// within its allocation or within a worker's capacity.
//
// Units follow the paper: cores are fractional core counts, memory and disk
// are megabytes, and time is seconds.
package resources

import (
	"fmt"
	"math"
	"strings"
)

// Kind identifies one resource dimension.
type Kind int

// The resource kinds, in canonical order. Cores, Memory, and Disk are the
// dimensions evaluated by the paper (Figures 5 and 6); Time participates in
// the task model (a task T(c, m, d, t) runs for t seconds) and in the waste
// metrics as the multiplier of every allocation.
const (
	Cores Kind = iota
	Memory
	Disk
	Time

	// NumKinds is the number of resource kinds.
	NumKinds
)

var kindNames = [NumKinds]string{"cores", "memory", "disk", "time"}
var kindUnits = [NumKinds]string{"cores", "MB", "MB", "s"}

// String returns the lowercase name of the kind, e.g. "memory".
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Unit returns the measurement unit of the kind, e.g. "MB".
func (k Kind) Unit() string {
	if k < 0 || k >= NumKinds {
		return "?"
	}
	return kindUnits[k]
}

// ParseKind converts a kind name (as produced by Kind.String) back to a Kind.
func ParseKind(s string) (Kind, error) {
	for k := Kind(0); k < NumKinds; k++ {
		if kindNames[k] == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("resources: unknown kind %q", s)
}

// Kinds returns all resource kinds in canonical order.
func Kinds() []Kind {
	return []Kind{Cores, Memory, Disk, Time}
}

// AllocatedKinds returns the kinds for which the allocators predict values
// and for which the paper reports efficiency and waste: cores, memory, disk.
func AllocatedKinds() []Kind {
	return []Kind{Cores, Memory, Disk}
}

// KindSet is a set of resource kinds, bit k standing for Kind(k): the kinds
// an exhausted attempt was caught over-consuming, as both wire layouts carry
// them.
type KindSet uint8

// AllKinds is the set of every kind; a bit outside it names none.
const AllKinds KindSet = 1<<NumKinds - 1

// KindSetOf returns the set of kinds. A value that is no kind sets bits
// outside AllKinds, which no wire layout accepts.
func KindSetOf(kinds []Kind) KindSet {
	var s KindSet
	for _, k := range kinds {
		if k < 0 || k >= NumKinds {
			s |= ^AllKinds
			continue
		}
		s |= 1 << k
	}
	return s
}

// AppendKinds appends the set's kinds to dst in canonical order.
func (s KindSet) AppendKinds(dst []Kind) []Kind {
	for k := Kind(0); k < NumKinds; k++ {
		if s&(1<<k) != 0 {
			dst = append(dst, k)
		}
	}
	return dst
}

// Vector holds one value per resource kind. The zero value is the all-zero
// vector and is ready to use.
type Vector [NumKinds]float64

// New builds a vector from explicit cores/memory/disk/time values.
func New(cores, memoryMB, diskMB, timeS float64) Vector {
	return Vector{cores, memoryMB, diskMB, timeS}
}

// Get returns the value of kind k.
func (v Vector) Get(k Kind) float64 { return v[k] }

// With returns a copy of v with kind k set to val.
func (v Vector) With(k Kind, val float64) Vector {
	v[k] = val
	return v
}

// Add returns the element-wise sum v + o.
func (v Vector) Add(o Vector) Vector {
	for k := range v {
		v[k] += o[k]
	}
	return v
}

// Sub returns the element-wise difference v - o.
func (v Vector) Sub(o Vector) Vector {
	for k := range v {
		v[k] -= o[k]
	}
	return v
}

// Scale returns v with every element multiplied by f.
func (v Vector) Scale(f float64) Vector {
	for k := range v {
		v[k] *= f
	}
	return v
}

// Max returns the element-wise maximum of v and o.
func (v Vector) Max(o Vector) Vector {
	for k := range v {
		v[k] = math.Max(v[k], o[k])
	}
	return v
}

// Min returns the element-wise minimum of v and o.
func (v Vector) Min(o Vector) Vector {
	for k := range v {
		v[k] = math.Min(v[k], o[k])
	}
	return v
}

// FitsWithin reports whether every element of v is less than or equal to the
// corresponding element of limit. It is the success condition of the paper's
// assumption set: a task executes successfully only if c <= c_a, m <= m_a,
// d <= d_a, and t <= t_a.
func (v Vector) FitsWithin(limit Vector) bool {
	for k := range v {
		if v[k] > limit[k] {
			return false
		}
	}
	return true
}

// Exceeded returns the kinds in which v strictly exceeds limit. An empty
// result means v fits within limit.
func (v Vector) Exceeded(limit Vector) []Kind {
	var out []Kind
	for k := Kind(0); k < NumKinds; k++ {
		if v[k] > limit[k] {
			out = append(out, k)
		}
	}
	return out
}

// IsZero reports whether every element is zero.
func (v Vector) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// NonNegative reports whether every element is >= 0.
func (v Vector) NonNegative() bool {
	for _, x := range v {
		if x < 0 {
			return false
		}
	}
	return true
}

// String renders the vector as "cores=1.0 memory=1024.0MB disk=1024.0MB time=60.0s".
func (v Vector) String() string {
	var b strings.Builder
	for k := Kind(0); k < NumKinds; k++ {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.1f%s", k, v[k], suffix(k))
	}
	return b.String()
}

func suffix(k Kind) string {
	switch k {
	case Memory, Disk:
		return "MB"
	case Time:
		return "s"
	default:
		return ""
	}
}

// Unlimited is a practically infinite resource amount, used for dimensions
// that an allocator chooses not to constrain (e.g. wall time by default).
const Unlimited = math.MaxFloat64 / 4

// Worker describes the capacity of one worker node. The paper's evaluation
// deploys opportunistic workers with 16 cores, 64 GB of memory, and 64 GB of
// disk (Section V-A).
type Worker struct {
	Capacity Vector
}

// PaperWorker returns the worker shape used throughout the paper's
// evaluation: 16 cores, 64 GB memory, 64 GB disk, unlimited time.
func PaperWorker() Vector {
	return Vector{16, 64 * 1024, 64 * 1024, Unlimited}
}

// PaperExploration returns the conservative exploratory-mode allocation used
// by the bucketing algorithms (Section V-A): 1 core, 1 GB memory, 1 GB disk.
func PaperExploration() Vector {
	return Vector{1, 1024, 1024, Unlimited}
}
