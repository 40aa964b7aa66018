// Package p2psync ports the paper's device-side synchronization primitives
// (Fig. 11) to Go. On the DGX-1 proof-of-concept, C-Cube runs as persistent
// CUDA kernels that must synchronize without host intervention: a spin lock
// built from atomic compare-and-swap plus memory fences, and semaphores
// (post / wait / check) built on top of it for managing receive buffers and
// the gradient queue.
//
// The Go ports keep the same structure — CAS spin loops and a count guarded
// by the lock — with runtime.Gosched standing in for the GPU's hardware
// thread scheduling. The gpusim interpreter runs one goroutine "kernel" per
// GPU and orders every op after its dependencies by checking one semaphore
// per op, posted when that op completes; the gradient queue's enqueue
// counter is a semaphore too. Their deadlock-freedom and ordering behavior
// is exercised under the race detector, which is the property the CUDA
// originals rely on.
package p2psync

import (
	"runtime"
	"sync/atomic"
)

// SpinLock is the lock/unlock pair of Fig. 11: acquisition spins on
// atomicCAS(lock, 0, 1); release is an atomic store (the atomicExch of the
// original). Go's atomics provide the fence semantics the CUDA code gets
// from __threadfence.
//
// The zero value is an unlocked lock.
type SpinLock struct {
	state atomic.Int32
}

// Lock spins until the lock is acquired.
func (l *SpinLock) Lock() {
	for !l.state.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

// TryLock acquires the lock if it is free and reports whether it did.
func (l *SpinLock) TryLock() bool {
	return l.state.CompareAndSwap(0, 1)
}

// Unlock releases the lock. Unlocking an unheld lock panics — it would mean
// two kernels believed they owned a receive buffer simultaneously.
func (l *SpinLock) Unlock() {
	if !l.state.CompareAndSwap(1, 0) {
		panic("p2psync: unlock of unlocked SpinLock")
	}
}

// Semaphore is the post/wait/check counter of Fig. 11, used to manage the
// receive buffers of the overlapped tree and the gradient queue's enqueue
// counter. The count is guarded by a SpinLock exactly as in the paper's
// pseudocode (no blocking OS primitives — persistent kernels cannot sleep).
//
// The zero value is an unbounded semaphore with count 0.
type Semaphore struct {
	lock SpinLock
	cnt  int64

	// capacity bounds the count for producer flow control: Post spins while
	// cnt == capacity, modeling a bounded receive buffer. A capacity of 0
	// means unbounded (the gradient queue's enqueue semaphore, whose backing
	// store is the gradient buffer itself and needs no extra bound).
	capacity int64
}

// NewSemaphore returns a semaphore with the given initial count and
// capacity (0 = unbounded).
func NewSemaphore(initial, capacity int64) *Semaphore {
	if capacity > 0 && initial > capacity {
		panic("p2psync: initial count exceeds capacity")
	}
	return &Semaphore{cnt: initial, capacity: capacity}
}

// Post increments the count, spinning first while the count sits at
// capacity (Fig. 11's `while cnt==value`).
func (s *Semaphore) Post() { s.PostBounded(0) }

// PostBounded is Post with a spin budget: it gives up and returns false
// after budget failed spin iterations. A budget <= 0 means spin forever
// (always returns true). Bounded waits are the fault-injection escape hatch:
// a kernel whose peer died detects the stall instead of spinning eternally.
func (s *Semaphore) PostBounded(budget int) bool {
	s.lock.Lock()
	for s.capacity > 0 && s.cnt == s.capacity {
		s.lock.Unlock()
		mSemSpins.Inc()
		if budget > 0 {
			budget--
			if budget == 0 {
				return false
			}
		}
		runtime.Gosched()
		s.lock.Lock()
	}
	s.cnt++
	s.lock.Unlock()
	return true
}

// Wait decrements the count, spinning while it is zero (Fig. 11's
// `while cnt==0`).
func (s *Semaphore) Wait() { s.WaitBounded(0) }

// WaitBounded is Wait with a spin budget (see PostBounded).
func (s *Semaphore) WaitBounded(budget int) bool {
	s.lock.Lock()
	for s.cnt == 0 {
		s.lock.Unlock()
		mSemSpins.Inc()
		if budget > 0 {
			budget--
			if budget == 0 {
				return false
			}
		}
		runtime.Gosched()
		s.lock.Lock()
	}
	s.cnt--
	s.lock.Unlock()
	return true
}

// Check spins until the count reaches value without modifying it — the
// paper's addition for gradient queuing, where each layer checks that its
// chunks have all been enqueued before dequeuing (Fig. 11's `check`).
func (s *Semaphore) Check(value int64) { s.CheckBounded(value, 0) }

// CheckBounded is Check with a spin budget (see PostBounded).
func (s *Semaphore) CheckBounded(value int64, budget int) bool {
	s.lock.Lock()
	for s.cnt < value {
		s.lock.Unlock()
		mSemSpins.Inc()
		if budget > 0 {
			budget--
			if budget == 0 {
				return false
			}
		}
		runtime.Gosched()
		s.lock.Lock()
	}
	s.lock.Unlock()
	return true
}

// Count returns the current count (for tests and metrics).
func (s *Semaphore) Count() int64 {
	s.lock.Lock()
	c := s.cnt
	s.lock.Unlock()
	return c
}
