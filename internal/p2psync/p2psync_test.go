package p2psync

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestSpinLockMutualExclusion(t *testing.T) {
	var l SpinLock
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000 (lost updates)", counter)
	}
}

func TestSpinLockTryLock(t *testing.T) {
	var l SpinLock
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after unlock failed")
	}
	l.Unlock()
}

func TestSpinLockUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unlock of unheld lock did not panic")
		}
	}()
	var l SpinLock
	l.Unlock()
}

func TestSemaphorePostWait(t *testing.T) {
	s := NewSemaphore(0, 0)
	done := make(chan struct{})
	go func() {
		s.Wait()
		close(done)
	}()
	s.Post()
	<-done
	if c := s.Count(); c != 0 {
		t.Fatalf("count = %d, want 0", c)
	}
}

func TestSemaphoreCapacityBoundsProducer(t *testing.T) {
	s := NewSemaphore(0, 2)
	s.Post()
	s.Post()
	var posted atomic.Bool
	go func() {
		s.Post() // must block until a Wait frees a slot
		posted.Store(true)
	}()
	// The third post cannot complete while count == capacity.
	if c := s.Count(); c != 2 {
		t.Fatalf("count = %d, want 2", c)
	}
	s.Wait()
	for !posted.Load() {
	}
	if c := s.Count(); c != 2 {
		t.Fatalf("count after wait+post = %d, want 2", c)
	}
}

func TestSemaphoreCheckDoesNotConsume(t *testing.T) {
	s := NewSemaphore(0, 0)
	done := make(chan struct{})
	go func() {
		s.Check(3)
		close(done)
	}()
	s.Post()
	s.Post()
	select {
	case <-done:
		t.Fatal("Check(3) returned at count 2")
	default:
	}
	s.Post()
	<-done
	if c := s.Count(); c != 3 {
		t.Fatalf("count after Check = %d, want 3 (check must not consume)", c)
	}
}

func TestSemaphoreInitialExceedsCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSemaphore(3, 2) did not panic")
		}
	}()
	NewSemaphore(3, 2)
}

func TestSemaphoreManyProducersConsumers(t *testing.T) {
	s := NewSemaphore(0, 4)
	const total = 4000
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				s.Post()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				s.Wait()
				consumed.Add(1)
			}
		}()
	}
	wg.Wait()
	if consumed.Load() != total {
		t.Fatalf("consumed %d, want %d", consumed.Load(), total)
	}
	if c := s.Count(); c != 0 {
		t.Fatalf("final count = %d, want 0", c)
	}
}
