package rdma

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
