package rdma

import "sync"

// len reports how many buffers the class holds, for the recycling tests.
func (c *frameClass) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.free)
}

// timerArmCount reports how often q's retransmission timer was armed from
// idle (ticks that re-arm themselves are not counted).
func (q *QP) timerArmCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.timerArms
}

// isTicking reports whether q's retransmission timer is running (a busy
// period is open).
func (q *QP) isTicking() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ticking
}

// retryCount reports q's consecutive-retry counter.
func (q *QP) retryCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.retries
}

// hold takes q's datapath lock until release is called (once or more): a
// frame for q then stops its NIC's inbox consumer inside Input, and every
// frame behind it waits in the inbox.
func (q *QP) hold() (release func()) {
	q.mu.Lock()
	var once sync.Once
	return func() { once.Do(q.mu.Unlock) }
}

// inDelivery reports whether the inbox consumer has taken a frame of flow
// key and not yet come back for more.
func (ib *inbox) inDelivery(key uint32) bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	fl := ib.flows[key]
	return fl != nil && fl.delivering > 0
}
