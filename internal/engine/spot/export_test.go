package spot

// waitCount reports how many completion waits the shard has blocked in —
// what TestRoundWaits counts a serve round in.
func (s *shard) waitCount() int { return s.waits }
