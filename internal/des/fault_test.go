package des

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Regression for the ppm truncation bug: int64(2.3 * 1e6) == 2299999, so a
// 2.3x slowdown of 1ms used to come out one nanosecond short.
func TestSlowdownPPMRounds(t *testing.T) {
	r := NewResource("gpu0")
	r.SetSlowdown(2.3)
	_, end, _ := r.reserve(0, Time(1_000_000), 1)
	if end != 2_300_000 {
		t.Fatalf("2.3x slowdown of 1_000_000ns = %v, want 2_300_000", end)
	}
}

// Property: for any factor expressible in whole ppm, scaling d by the factor
// equals the mathematically rounded product at ppm resolution.
func TestSlowdownRoundingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		ppm := int64(1_000_000 + rng.Intn(9_000_000)) // factor in [1, 10)
		factor := float64(ppm) / 1e6
		r := NewResource("r")
		r.SetSlowdown(factor)
		if r.slowdownPPM != ppm {
			t.Fatalf("factor %v stored as %d ppm, want %d", factor, r.slowdownPPM, ppm)
		}
		d := Time(rng.Intn(1_000_000_000))
		got := r.scaledAt(0, d)
		want := Time(int64(d) * ppm / 1_000_000)
		if got != want {
			t.Fatalf("scaled(%v) at %d ppm = %v, want %v", d, ppm, got, want)
		}
		if math.Abs(float64(got)-float64(d)*factor) > 1 {
			t.Fatalf("scaled(%v) = %v, off from %v by more than 1ns", d, got, float64(d)*factor)
		}
	}
}

func TestSetSlowdownAfterReservationPanics(t *testing.T) {
	r := NewResource("r")
	r.reserve(0, 10, 1)
	defer func() {
		if recover() == nil {
			t.Error("SetSlowdown after a reservation did not panic")
		}
	}()
	r.SetSlowdown(2)
}

func TestSetSlowdownAt(t *testing.T) {
	r := NewResource("link")
	r.SetSlowdownAt(100, 4)
	// Before the breakpoint: full speed.
	_, end, _ := r.reserve(0, 50, 1)
	if end != 50 {
		t.Fatalf("pre-break end = %v, want 50", end)
	}
	// After: 4x slower. freeAt is 50, ready 100 -> start 100 >= break.
	_, end, _ = r.reserve(100, 50, 2)
	if end != 300 {
		t.Fatalf("post-break end = %v, want 300", end)
	}
	// A later breakpoint can restore speed.
	r2 := NewResource("link2")
	r2.SetSlowdownAt(100, 4)
	r2.SetSlowdownAt(200, 1)
	_, end, _ = r2.reserve(250, 50, 1)
	if end != 300 {
		t.Fatalf("restored end = %v, want 300", end)
	}
}

func TestSetSlowdownAtOutOfOrderPanics(t *testing.T) {
	r := NewResource("r")
	r.SetSlowdownAt(100, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order SetSlowdownAt did not panic")
		}
	}()
	r.SetSlowdownAt(50, 3)
}

func TestFailAtRefuses(t *testing.T) {
	r := NewResource("link")
	r.FailAt(100)
	// Starts before the failure: completes, even past the failure time.
	_, end, err := r.reserve(90, 50, 1)
	if err != nil || end != 140 {
		t.Fatalf("in-flight reservation: end=%v err=%v", end, err)
	}
	// Would start after the failure (freeAt=140 >= 100): refused.
	_, _, err = r.reserve(0, 10, 2)
	if err == nil {
		t.Fatal("reservation after failure not refused")
	}
}

func TestGraphRunErrSurfacesFault(t *testing.T) {
	g := NewGraph()
	link := NewResource("ch3")
	link.FailAt(15)
	a := g.Add(link, 10)
	g.Add(link, 10, a) // would start at 10 < 15: fine? start = freeAt = 10 < 15 -> ok, ends 20
	c := g.Add(link, 10, a)
	_ = c // starts at 20 >= 15: refused
	names := []string{"send-a", "send-b", "send-c"}
	g.SetNamer(NamerFunc(func(id int) string { return names[id] }))
	_, err := g.RunCtx(context.Background())
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FaultError", err)
	}
	f := fe.Faults[0]
	if f.Resource != "ch3" || f.Label != "send-c" || f.FailedAt != 15 {
		t.Fatalf("fault = %+v", f)
	}
	if fe.Executed != 2 || fe.Total != 3 {
		t.Fatalf("executed %d of %d, want 2 of 3", fe.Executed, fe.Total)
	}
	if fe.Error() == "" {
		t.Fatal("empty error string")
	}
}

// TestGrantThatWouldOverlapIsAnError pins the grant-time serialization
// check: a grant whose end overflows past its start (so the next grant on
// the resource could start inside it) fails the run with an error instead
// of logging an overlapping interval.
func TestGrantThatWouldOverlapIsAnError(t *testing.T) {
	g := NewGraph()
	r := NewResource("link")
	a := g.Add(r, 10)
	g.Add(r, math.MaxInt64, a)
	_, err := g.RunCtx(context.Background())
	if err == nil || !strings.Contains(err.Error(), "ends before it starts") {
		t.Fatalf("overflowing grant: err = %v", err)
	}
}
