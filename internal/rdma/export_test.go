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
// frame for q then stops the goroutine delivering it inside Input; when that
// is the delay line's, every frame behind it waits on the line.
func (q *QP) hold() (release func()) {
	q.mu.Lock()
	var once sync.Once
	return func() { once.Do(q.mu.Unlock) }
}

// inDelivery reports whether the delay line's goroutine is handing a frame
// of q's flow to q.
func (q *QP) inDelivery() bool {
	l := &q.nic.fabric.line
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur == flow{macKey(q.nic.mac[:]), q.qpn}
}
