package spot

import "time"

// waitCount reports how many completion waits the shard has blocked in —
// what TestRoundWaits counts a serve round in.
func (s *shard) waitCount() int { return s.waits }

// setOpTimeout shortens the completion-wait bound of an engine that is not
// yet running.
func (e *Engine) setOpTimeout(d time.Duration) { e.opTimeout = d }
