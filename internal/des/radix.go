package des

import (
	"fmt"
	"math/bits"
)

// radixQueue is the run loop's ready queue: a monotone radix heap of task
// ids keyed on ready time. It is valid because a task becomes ready at its
// last predecessor's end, which is never before the ready time of the task
// popped last, so no pushed key is below the last popped one.
//
// Keys equal to the last popped key sit in now, a binary min-heap ordered
// by id; every other key k sits in bucket bits.Len64(k^last)-1 (keys mapped
// to unsigned order). Popping drains now first, so among equal ready times
// the lowest id wins, and when now is empty the lowest non-empty bucket's
// minimum becomes the new last key and the bucket is redistributed into
// lower ones. The pop order is exactly (ready time, id) ascending: every
// Start and End matches a binary heap over the same order.
//
// A bucket is a list threaded through next, one slot per task id, so
// filing an id never allocates: the queue's only growth is now's.
type radixQueue struct {
	last uint64 // last popped key, in unsigned order
	n    int    // queued ids, now and buckets together
	mask uint64 // bit b set when bucket b is non-empty
	now  []int32
	head [64]int32 // first id of each non-empty bucket
	next []int32   // next[id]: the id after id in its bucket, -1 at the end
}

// radixKey maps a Time to an unsigned key with the same order.
func radixKey(t Time) uint64 { return uint64(t) ^ (1 << 63) }

// reset empties the queue for ids below tasks, keeping every backing
// array.
func (q *radixQueue) reset(tasks int) {
	q.last, q.n, q.mask = 0, 0, 0
	q.now = q.now[:0]
	q.next = resize(q.next, tasks)
}

// push queues id with ready time t.
func (q *radixQueue) push(id int32, t Time) {
	k := radixKey(t)
	if k < q.last {
		panic(fmt.Sprintf("des: task %d ready at %v, before the last granted ready time", id, t))
	}
	q.n++
	q.place(id, k)
}

// place files id under key k >= last.
func (q *radixQueue) place(id int32, k uint64) {
	if k == q.last {
		q.nowPush(id)
		return
	}
	b := bits.Len64(k^q.last) - 1
	q.next[id] = -1
	if q.mask&(1<<b) != 0 {
		q.next[id] = q.head[b]
	}
	q.head[b] = id
	q.mask |= 1 << b
}

// pop removes and returns the queued id with the smallest (ready time, id);
// ready holds every task's ready time. The queue must not be empty.
func (q *radixQueue) pop(ready []Time) int32 {
	if len(q.now) == 0 {
		q.refill(ready)
	}
	q.n--
	return q.nowPop()
}

// refill advances last to the smallest key of the lowest non-empty bucket
// and redistributes that bucket: ids at the new key move into now, the rest
// into strictly lower buckets.
func (q *radixQueue) refill(ready []Time) {
	b := bits.TrailingZeros64(q.mask)
	first := q.head[b]
	min := radixKey(ready[first])
	for id := q.next[first]; id >= 0; id = q.next[id] {
		if k := radixKey(ready[id]); k < min {
			min = k
		}
	}
	q.last = min
	q.mask &^= 1 << b
	for id := first; id >= 0; {
		next := q.next[id]
		q.place(id, radixKey(ready[id]))
		id = next
	}
}

func (q *radixQueue) nowPush(id int32) {
	h := append(q.now, id) // now keeps its array across runs
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= id {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = id
	q.now = h
}

func (q *radixQueue) nowPop() int32 {
	h := q.now
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && h[r] < h[l] {
			min = r
		}
		if h[min] >= last {
			break
		}
		h[i] = h[min]
		i = min
	}
	if n > 0 {
		h[i] = last
	}
	q.now = h
	return top
}
