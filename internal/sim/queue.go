package sim

// Queue is an unbounded FIFO channel between simulation processes. Put never
// blocks; Get blocks the calling process until an item is available. Items
// are delivered to getters in FIFO order; multiple blocked getters are served
// in the order they blocked.
type Queue[T any] struct {
	e       *Engine
	items   []T
	waiters []*Proc
	closed  bool
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{e: e}
}

// Len reports the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends v and wakes one blocked getter, if any. Safe to call from
// event callbacks as well as processes.
func (q *Queue[T]) Put(v T) {
	if q.closed {
		panic("sim: Put on closed Queue")
	}
	q.items = append(q.items, v)
	q.wakeOne()
}

// Close marks the queue closed. Blocked and future Gets return ok=false once
// the buffer drains.
func (q *Queue[T]) Close() {
	q.closed = true
	// Wake everyone so they can observe closure.
	for len(q.waiters) > 0 {
		q.wakeOne()
	}
}

func (q *Queue[T]) wakeOne() {
	if len(q.waiters) == 0 {
		return
	}
	w := q.waiters[0]
	q.waiters = q.waiters[1:]
	q.e.After(0, func() { q.e.transfer(w) })
}

// Get removes and returns the head item, blocking the calling process while
// the queue is empty. ok is false if the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for len(q.items) == 0 {
		if q.closed {
			return v, false
		}
		q.waiters = append(q.waiters, p)
		p.park()
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}
