package des

import (
	"fmt"
	"math"
)

// Interval is a half-open occupancy window [Start, End) on a Resource.
type Interval struct {
	Start, End Time
	TaskID     int
}

// slowBreak is a scheduled slowdown change: from At onward, durations scale
// by PPM parts-per-million.
type slowBreak struct {
	At  Time
	PPM int64
}

// Resource is a serialized server: at most one task occupies it at a time,
// and tasks are granted in the order they become ready (FIFO by ready time,
// ties broken deterministically by task sequence). Physical links and GPU
// compute streams are Resources.
type Resource struct {
	Name string

	freeAt Time
	busy   []Interval // recorded occupancy, in grant order

	// Slowdown multiplies every duration scheduled on this resource, in
	// parts-per-million (1_000_000 = no slowdown). It models resource "taxes"
	// such as detour-forwarding kernels stealing SM time on a GPU.
	slowdownPPM int64

	// breaks are scheduled slowdown changes (fault injection), sorted by At.
	// The factor in effect at a reservation's start time applies to its whole
	// duration.
	breaks []slowBreak

	// failAt, when hasFail, is the virtual time at which the resource dies:
	// any reservation that would start at or after failAt is refused.
	failAt  Time
	hasFail bool

	// slot is the resource's index in the Flat a Graph runs on; only
	// meaningful while Graph.RunCtx binds its resources.
	slot int32
}

// NewResource returns an idle resource with no slowdown.
func NewResource(name string) *Resource {
	return &Resource{Name: name, slowdownPPM: 1_000_000}
}

func factorPPM(factor float64) int64 {
	return int64(math.Round(factor * 1_000_000))
}

// SetSlowdown sets a multiplicative duration factor. factor must be >= 1.
// The factor is stored in parts-per-million, rounded to the nearest ppm.
// Calling it on a resource that already has recorded occupancy panics:
// rescaling granted intervals retroactively would silently corrupt a run.
func (r *Resource) SetSlowdown(factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("des: slowdown factor %v < 1 on %s", factor, r.Name))
	}
	if len(r.busy) > 0 {
		panic(fmt.Sprintf("des: SetSlowdown on %s after %d reservations", r.Name, len(r.busy)))
	}
	r.slowdownPPM = factorPPM(factor)
}

// SetSlowdownAt schedules a slowdown change at virtual time at: reservations
// starting at or after it scale by factor (>= 1; 1 restores full speed).
// Changes must be added in nondecreasing time order, before the resource has
// any occupancy.
func (r *Resource) SetSlowdownAt(at Time, factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("des: slowdown factor %v < 1 on %s", factor, r.Name))
	}
	if at < 0 {
		panic(fmt.Sprintf("des: SetSlowdownAt(%v) on %s", at, r.Name))
	}
	if len(r.busy) > 0 {
		panic(fmt.Sprintf("des: SetSlowdownAt on %s after %d reservations", r.Name, len(r.busy)))
	}
	if n := len(r.breaks); n > 0 && r.breaks[n-1].At > at {
		panic(fmt.Sprintf("des: SetSlowdownAt out of order on %s: %v after %v", r.Name, at, r.breaks[n-1].At))
	}
	r.breaks = append(r.breaks, slowBreak{At: at, PPM: factorPPM(factor)})
}

// FailAt schedules the resource's death: any reservation starting at or
// after `at` is refused with a structured error (the run surfaces it as a
// FaultError). A reservation already started when the failure hits runs to
// completion — links fail between transfers, not mid-flit, in this model.
func (r *Resource) FailAt(at Time) {
	if at < 0 {
		panic(fmt.Sprintf("des: FailAt(%v) on %s", at, r.Name))
	}
	r.failAt = at
	r.hasFail = true
}

// Failed reports whether the resource is scheduled to die, and when.
func (r *Resource) Failed() (Time, bool) { return r.failAt, r.hasFail }

// ppmAt returns the slowdown in effect at time t.
func (r *Resource) ppmAt(t Time) int64 {
	ppm := r.slowdownPPM
	for _, b := range r.breaks {
		if b.At > t {
			break
		}
		ppm = b.PPM
	}
	return ppm
}

// scaledAt applies the slowdown in effect at start to a duration.
func (r *Resource) scaledAt(start Time, d Time) Time {
	ppm := r.ppmAt(start)
	if ppm == 1_000_000 {
		return d
	}
	return Time(int64(d) * ppm / 1_000_000)
}

// grant books the resource from start for d, scaled by the slowdown in
// effect at start, logs the interval and returns the scaled duration. A
// failed resource refuses (ok false) any grant starting at or after its
// failure time. The caller has already waited start out to the resource's
// free time.
func (r *Resource) grant(start, d Time, taskID int) (scaled Time, ok bool) {
	if r.hasFail && start >= r.failAt {
		return 0, false
	}
	scaled = r.scaledAt(start, d)
	r.freeAt = start + scaled
	r.busy = append(r.busy, Interval{Start: start, End: r.freeAt, TaskID: taskID}) // amortized: Reset keeps the backing array
	return scaled, true
}

// Prealloc ensures capacity for n further occupancy intervals, so a sized
// workload reserves with zero allocations from the first grant on (Reset
// already keeps the backing array, making steady-state reuse
// allocation-free).
func (r *Resource) Prealloc(n int) {
	if want := len(r.busy) + n; cap(r.busy) < want {
		grown := make([]Interval, len(r.busy), want) // prealloc: sizing the interval log once
		copy(grown, r.busy)
		r.busy = grown
	}
}

// FreeAt reports when the resource next becomes idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Busy returns the recorded occupancy intervals in grant order. The returned
// slice is owned by the resource; callers must not mutate it.
func (r *Resource) Busy() []Interval { return r.busy }

// BusyTime returns the total occupied time on the resource.
func (r *Resource) BusyTime() Time {
	var total Time
	for _, iv := range r.busy {
		total += iv.End - iv.Start
	}
	return total
}

// Utilization returns BusyTime divided by the horizon (0 if horizon is 0).
func (r *Resource) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(r.BusyTime()) / float64(horizon)
}

// Reset clears occupancy so the resource can be reused for another run.
// Slowdown and fault configuration survive a Reset; only the schedule state
// is cleared.
func (r *Resource) Reset() {
	r.freeAt = 0
	r.busy = r.busy[:0]
}

// ValidateSerialized checks that recorded intervals never overlap; it returns
// an error naming the first violation. This is a structural invariant of the
// simulator itself and is asserted by tests after every experiment run.
func (r *Resource) ValidateSerialized() error {
	for i := 1; i < len(r.busy); i++ {
		if r.busy[i].Start < r.busy[i-1].End {
			return fmt.Errorf("des: resource %s: interval %d [%v,%v) overlaps previous [%v,%v)",
				r.Name, i, r.busy[i].Start, r.busy[i].End, r.busy[i-1].Start, r.busy[i-1].End)
		}
	}
	return nil
}
