package p2psync

import "testing"

func TestWaitBoundedStallsAndRecovers(t *testing.T) {
	s := NewSemaphore(0, 0)
	if s.WaitBounded(64) {
		t.Fatal("WaitBounded succeeded on an empty semaphore")
	}
	s.Post()
	if !s.WaitBounded(64) {
		t.Fatal("WaitBounded failed with a count available")
	}
	if s.Count() != 0 {
		t.Fatalf("count = %d after bounded wait, want 0", s.Count())
	}
}

func TestPostBoundedStallsAtCapacity(t *testing.T) {
	s := NewSemaphore(1, 1)
	if s.PostBounded(64) {
		t.Fatal("PostBounded succeeded at capacity")
	}
	s.Wait()
	if !s.PostBounded(64) {
		t.Fatal("PostBounded failed below capacity")
	}
}

func TestCheckBoundedStalls(t *testing.T) {
	s := NewSemaphore(1, 0)
	if s.CheckBounded(2, 64) {
		t.Fatal("CheckBounded(2) succeeded with count 1")
	}
	if !s.CheckBounded(1, 64) {
		t.Fatal("CheckBounded(1) failed with count 1")
	}
	if s.Count() != 1 {
		t.Fatalf("Check consumed the count: %d", s.Count())
	}
}
