package chaos

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/driver"
	"cowbird/internal/memnode"
)

// WorkloadConfig sizes an invariant-checking workload.
type WorkloadConfig struct {
	// Slots partitions the region into Slots slots of SlotSize bytes each;
	// every operation targets one whole slot.
	Slots    int
	SlotSize int
	// Ops is the number of operations to issue.
	Ops int
	// Window caps in-flight operations.
	Window int
	// DrainTimeout bounds how long the workload may go without a single
	// completion before it fails (driver.Loop.Stall).
	DrainTimeout time.Duration
	// OnOp, if set, runs once before operation i is first issued — the hook
	// property tests use to fire a fault at a seeded point in the workload.
	OnOp func(i int)
}

// DefaultWorkloadConfig returns a workload that fits the default system
// deployment (4 MiB region).
func DefaultWorkloadConfig() WorkloadConfig {
	return WorkloadConfig{
		Slots:        64,
		SlotSize:     256,
		Ops:          400,
		Window:       32,
		DrainTimeout: 30 * time.Second,
	}
}

// workloadOp is one operation of the workload, drawn when it is first issued.
type workloadOp struct {
	read bool
	slot int
	tag  byte // a write's fill byte; for a read, that of the last write issued before it
}

// RunWorkload drives a seeded random read/write workload over th through
// internal/driver's closed loop and checks the fault-tolerance invariants
// the property tests rely on:
//
//   - every acked write is readable: a read returns the bytes of the last
//     write issued before it to the same slot (per-queue ring order plus the
//     engine's conflict splits make "last issued" well-defined);
//   - no completion is lost: every issued operation completes, with no
//     stretch longer than DrainTimeout between completions;
//   - no completion is duplicated or unknown: the driver fails a completion
//     of an op that is not in flight.
//
// ErrPoolDegraded and ErrEngineDead from the poll group count as an empty
// poll; a workload that never recovers from either fails at the stall bound.
// The workload is deterministic given the seed: the operation sequence
// consumes only the seeded source.
func RunWorkload(th *core.Thread, seed int64, cfg WorkloadConfig) error {
	if cfg.Slots <= 0 || cfg.SlotSize <= 0 || cfg.Ops <= 0 {
		return fmt.Errorf("chaos: bad workload config %+v", cfg)
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]workloadOp, cfg.Ops)
	drawn := 0                         // ops[:drawn] are drawn; a ring-full retry reissues the same op
	lastTag := make([]byte, cfg.Slots) // 0 = never written (region starts zeroed)
	buf := make([]byte, cfg.SlotSize)
	nextTag := byte(0)
	l := &driver.Loop{
		Thread: th, Who: "chaos workload", Window: cfg.Window, Ops: cfg.Ops,
		DestBytes: cfg.SlotSize, Stall: cfg.DrainTimeout,
		Issue: func(i int, dest []byte) (core.ReqID, error) {
			op := &ops[i]
			if i == drawn {
				if cfg.OnOp != nil {
					cfg.OnOp(i)
				}
				op.slot = rng.Intn(cfg.Slots)
				op.read = rng.Intn(2) != 0
				if op.read {
					op.tag = lastTag[op.slot]
				} else {
					// A fresh non-zero tag fills the slot.
					if nextTag++; nextTag == 0 {
						nextTag = 1
					}
					op.tag = nextTag
				}
				drawn++
			}
			off := uint64(op.slot * cfg.SlotSize)
			if op.read {
				return th.AsyncRead(0, off, dest)
			}
			for j := range buf {
				buf[j] = op.tag
			}
			id, err := th.AsyncWrite(0, buf, off)
			if err == nil {
				lastTag[op.slot] = op.tag
			}
			return id, err
		},
		Done: func(i int, dest []byte) error {
			op := ops[i]
			if !op.read {
				return nil
			}
			for off, b := range dest {
				if b != op.tag {
					return fmt.Errorf("chaos: read of slot %d byte %d: got %#x, want %#x (acked write lost or reordered)", op.slot, off, b, op.tag)
				}
			}
			return nil
		},
		// The rungs a thread's own timed WaitErr climbs (core's pace.Waiter),
		// with sleeps for blocks, so a bubble's clock moves too.
		Idle: func(misses int) {
			if misses <= 64 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
		},
	}
	return l.Run(nil)
}

// CheckReplicas verifies the replica-integrity half of the fencing
// invariant (DESIGN.md §14) after a chaos run: every pool in pools holds a
// byte-identical copy of region regionID over [0, size). Pass only live
// replicas — a crashed pool's memory is gone by design, not divergent.
// Byte equality across replicas is strictly stronger than "no acked write
// lost": it additionally proves no fenced writer landed a byte on SOME
// replicas (a partial mirror from a zombie would diverge them).
func CheckReplicas(pools []*memnode.Node, regionID uint16, size int) error {
	if len(pools) < 2 {
		return nil
	}
	const chunk = 1 << 20
	for off := 0; off < size; off += chunk {
		n := size - off
		if n > chunk {
			n = chunk
		}
		ref, err := pools[0].Peek(regionID, uint64(off), n)
		if err != nil {
			return fmt.Errorf("chaos: peek replica 0: %w", err)
		}
		for r := 1; r < len(pools); r++ {
			got, err := pools[r].Peek(regionID, uint64(off), n)
			if err != nil {
				return fmt.Errorf("chaos: peek replica %d: %w", r, err)
			}
			for i := range got {
				if got[i] != ref[i] {
					return fmt.Errorf("chaos: replicas 0 and %d diverge at region %d byte %d: %#x vs %#x",
						r, regionID, off+i, ref[i], got[i])
				}
			}
		}
	}
	return nil
}
