package ha

import (
	"errors"
	"fmt"
	"sync"

	"cowbird/internal/core"
	"cowbird/internal/engine/spot"
)

// Fencer is one party whose fencing epoch a promoted standby must bump
// before it serves: every pool replica (memnode.Node) and the compute-side
// client (core.Client) satisfy it. Fence raises the party's inbound-write
// floor to epoch — from then on RDMA WRITEs carrying an older epoch are
// NAKed, which is what turns a partitioned-but-alive old primary from a
// corruption hazard into a self-demoting zombie (DESIGN.md §14).
type Fencer interface {
	Fence(epoch uint16) error
	FenceEpoch() uint16
}

// Standby wraps an idle spot engine whose QPs to the compute node and
// memory pool are already wired, ready to take over an instance the moment
// the active engine's lease expires. Keeping the QPs warm means the
// blackout is dominated by detection (the lease timeout) plus one RDMA read
// per queue, not by re-provisioning.
type Standby struct {
	eng *spot.Engine

	mu        sync.Mutex
	pending   []spot.Registration
	fencers   []Fencer
	epoch     uint16
	promoted  bool
	promotErr error
}

// NewStandby wraps eng, which must be created (spot.New) but not yet
// running — Promote starts it.
func NewStandby(eng *spot.Engine) *Standby {
	return &Standby{eng: eng}
}

// Engine returns the wrapped engine (for stats and Stop).
func (s *Standby) Engine() *spot.Engine { return s.eng }

// Register records an instance the standby will adopt on promotion: the
// same value the active engine was given, over the standby's own QPs —
// connected QPs on its NIC using its CQ, one to every pool replica in the
// active engine's priority order so mirroring survives the takeover. They
// are wired now, before any failure, so promotion needs no control-plane
// round trips. r.Adopt is implied.
func (s *Standby) Register(r spot.Registration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return fmt.Errorf("ha: standby already promoted")
	}
	r.Adopt = true
	s.pending = append(s.pending, r)
	return nil
}

// RegisterFencer adds a party whose epoch Promote bumps before adoption.
// Register the client and every pool replica of every pending instance; a
// standby with no fencers promotes unfenced (the pre-fencing behavior).
func (s *Standby) RegisterFencer(f Fencer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fencers = append(s.fencers, f)
}

// Promoted reports whether Promote has run.
func (s *Standby) Promoted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted
}

// Epoch returns the fencing epoch this standby serves under (0 until a
// fenced Promote).
func (s *Standby) Epoch() uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Promote performs the takeover: it first fences the old primary out (see
// below), then for every registered instance reconstructs the engine-side
// state from the durable red bookkeeping block (an adopting
// spot.Engine.Register — one RDMA read per queue, executed on the engine's
// control shard behind its adoption barrier, so it is also safe on an engine
// that is already serving other instances) and then starts the engine,
// which spawns a worker per adopted queue set, resumes execution at the
// recovered MetaHead, and immediately re-announces liveness via heartbeat
// writes.
//
// Fencing (when fencers are registered): the new epoch is one past the
// highest epoch any reachable fencer reports, and every fencer's floor is
// raised to it before the first adoption read. From that point the old
// primary — which may be alive behind a partition, not dead — cannot land
// another byte anywhere: its next WRITE to any pool replica or to the
// compute node's rings NAKs with a stale-epoch syndrome and demotes it
// (spot.Engine.Fenced). A fencer that is unreachable cannot accept writes
// from anyone, stale or current, so skipping it is safe — the engine's
// replica failure detector declares it dead on first contact. A fencer
// that rejects the epoch as below its own floor means someone else
// promoted with a newer epoch; this standby is itself stale and Promote
// fails with core.ErrFenced.
//
// Promote is idempotent; concurrent calls collapse to one takeover, and
// repeat calls return the first outcome.
func (s *Standby) Promote() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return s.promotErr
	}
	s.promoted = true
	if len(s.fencers) > 0 {
		if err := s.fenceLocked(); err != nil {
			s.promotErr = err
			return s.promotErr
		}
	}
	for _, r := range s.pending {
		if err := s.eng.Register(r); err != nil {
			s.promotErr = fmt.Errorf("ha: promote: %w", err)
			return s.promotErr
		}
	}
	s.eng.Run()
	return nil
}

// fenceLocked bumps the fencing epoch at every fencer and sets it on the
// engine, whose Register then stamps it on every pending QP. Caller holds
// s.mu.
func (s *Standby) fenceLocked() error {
	epoch := uint16(0)
	for _, f := range s.fencers {
		if e := f.FenceEpoch(); e > epoch {
			epoch = e
		}
	}
	epoch++
	for _, f := range s.fencers {
		if err := f.Fence(epoch); err != nil {
			if errors.Is(err, core.ErrFenced) {
				return fmt.Errorf("ha: promote: superseded by a newer epoch: %w", err)
			}
			continue // unreachable fencer: accepts writes from no one; dead on first contact
		}
	}
	s.eng.SetFenceEpoch(epoch)
	s.epoch = epoch
	return nil
}
