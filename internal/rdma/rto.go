package rdma

import "time"

// The retransmission timeout's constants, on the scale of an in-process
// fabric with a 4 µs round trip (the loss exhibit, TestLossRecoveryExhibit in
// internal/system). Backoff, not the floor, keeps a stall from exhausting a
// healthy QP: n expiries in a row span RTO·(2ⁿ−1). So the floor need only sit
// above a healthy round trip, and it is what a loss costs on a fast path: at
// 2 % loss the exhibit's spot rows take 3.6–4.3 ms, 180–230 ms at the old
// fixed 2 ms floor.
const (
	DefaultRTOFloor = 20 * time.Microsecond // Config.RetransmitTimeout's default
	// DefaultMaxRetries is Config.MaxRetries' default: a silent peer fails a
	// QP at the floor after 20 µs·(2¹¹−1) ≈ 41 ms (DESIGN.md §9), against the
	// 52–54 ms of the old fixed (25+1..25+2)·2 ms.
	DefaultMaxRetries = 10
	// InitialRTO is the RTO of a path not yet measured (RFC 6298's 1 s, scaled
	// down), above a wall-clock first round trip with its goroutine wake-ups.
	InitialRTO = 100 * time.Microsecond
	// MaxRTO caps each timeout, so a dead peer fails within (MaxRetries+2)·
	// MaxRTO however slow its path had been.
	MaxRTO = 100 * time.Millisecond
)

// RTOEstimator is one requester's retransmission timeout, RFC 6298: SRTT and
// RTTVAR of its round trips (gains 1/8, 1/4), RTO = SRTT + 4·RTTVAR, doubled
// on each expiry without progress (§5.5) and reset on progress. The zero value
// is an unmeasured path. Each owner — a QP under its lock, a P4 queue on the
// switch's data plane — keeps its own.
type RTOEstimator struct {
	srtt, rttvar time.Duration
	backoff      uint8
}

// Observe folds one round-trip sample in and clears the backoff: a fresh
// sample recomputes the RTO (§5.7). Karn's rule is the caller's.
func (e *RTOEstimator) Observe(rtt time.Duration) {
	rtt = max(rtt, 1) // a zero SRTT reads as unmeasured
	e.backoff = 0
	if e.srtt == 0 {
		e.srtt, e.rttvar = rtt, rtt/2
		return
	}
	e.rttvar += (time.Duration(absDiff(int64(e.srtt), int64(rtt))) - e.rttvar) / 4
	e.srtt += (rtt - e.srtt) / 8
}

// Expire doubles the RTO: the timer ran out without progress.
func (e *RTOEstimator) Expire() { e.backoff = min(e.backoff+1, 30) }

// Progress resets the backoff: the peer answered.
func (e *RTOEstimator) Progress() { e.backoff = 0 }

// Measured reports whether a round trip has been observed.
func (e *RTOEstimator) Measured() bool { return e.srtt > 0 }

// Base returns the RTO without backoff: SRTT + 4·RTTVAR (InitialRTO before a
// sample), raised to floor, capped at MaxRTO or at floor if that is higher.
func (e *RTOEstimator) Base(floor time.Duration) time.Duration {
	rto := InitialRTO
	if e.srtt > 0 {
		rto = e.srtt + 4*e.rttvar
	}
	return min(max(rto, floor), max(MaxRTO, floor))
}

// RTO returns Base doubled per expiry since the last progress or sample,
// capped as Base is.
func (e *RTOEstimator) RTO(floor time.Duration) time.Duration {
	rto, ceiling := e.Base(floor), max(MaxRTO, floor)
	if rto > ceiling>>e.backoff {
		return ceiling
	}
	return rto << e.backoff
}
