// Package chaos is a deterministic fault-injection subsystem for Cowbird
// deployments. A seeded generator produces a Schedule — a time-ordered list
// of fault events (loss bursts, delay spikes, network partitions, pool
// crashes and restarts, engine preemption) — and an Injector replays the
// schedule against a running system through the substrate's existing knobs:
// the fabric loss predicate and latency, rdma.Partition, memnode.Crash/Restart,
// and the Spot engine's preemption injection.
//
// Determinism is the design constraint: schedule generation consumes only
// the seed (no wall clock, no global rand), so the same seed always yields
// the same fault sequence — the property the chaos-smoke CI step and the
// failover property tests rely on to make failures reproducible by seed.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cowbird/internal/wire"
)

// Kind is a fault event type.
type Kind int

// Fault kinds.
const (
	// KindLossBurst drops each frame with probability Pct for Dur.
	KindLossBurst Kind = iota
	// KindDelaySpike delivers every frame Delay late for Dur: propagation
	// latency (the fabric's SetLatency knob), not a serialized link, so
	// frames in flight overlap and bandwidth is untouched.
	KindDelaySpike
	// KindPartition severs the Src<->Dst MAC pair for Dur.
	KindPartition
	// KindPoolCrash crashes pool replica Pool at At. Dur == 0 leaves it
	// down; Dur > 0 restarts the node (empty — pool memory is volatile)
	// after Dur. A restarted node is NOT re-wired into the engine; the
	// replica stays dead until an operator re-provisions it, so the crash
	// is a durable redundancy loss either way.
	KindPoolCrash
	// KindEnginePreempt revokes the offload engine's VM at At (no revert).
	KindEnginePreempt
	// KindAsymPartition severs only the Src→Dst direction for Dur: Src's
	// frames vanish while Dst's still arrive. One-way loss is the classic
	// split-brain precursor — acks flow, requests don't (or vice versa) —
	// and exercises retransmission paths a symmetric partition never hits.
	KindAsymPartition
	// KindZombiePrimary isolates the engine (Src) from every MAC in Peers —
	// compute node and all pool replicas, both directions — for Dur, then
	// heals. The engine is never killed: it keeps serving into the void and
	// its in-flight writes come back as retransmissions when the partition
	// heals, which is exactly the split-brain window fencing (DESIGN.md §14)
	// must make harmless. Keep Dur under the compute-path retry budget (the
	// RTO doubled per retry, summed over MaxRetries+1 expiries: DESIGN.md
	// §9) if the deployment has no standby: with no one to promote,
	// exhausting those retries bricks the instance.
	KindZombiePrimary
)

func (k Kind) String() string {
	switch k {
	case KindLossBurst:
		return "loss-burst"
	case KindDelaySpike:
		return "delay-spike"
	case KindPartition:
		return "partition"
	case KindPoolCrash:
		return "pool-crash"
	case KindEnginePreempt:
		return "engine-preempt"
	case KindAsymPartition:
		return "asym-partition"
	case KindZombiePrimary:
		return "zombie-primary"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault.
type Event struct {
	At   time.Duration // offset from injection start
	Kind Kind
	Dur  time.Duration // fault duration; 0 = permanent

	Pct      float64       // KindLossBurst: per-frame drop probability
	Delay    time.Duration // KindDelaySpike: added one-way latency
	Src, Dst wire.MAC      // KindPartition/KindAsymPartition: severed pair; KindZombiePrimary: Src is the engine
	Pool     int           // KindPoolCrash: replica index
	Peers    []wire.MAC    // KindZombiePrimary: everyone Src is severed from
}

func (e Event) String() string {
	switch e.Kind {
	case KindLossBurst:
		return fmt.Sprintf("%8v %s pct=%.2f dur=%v", e.At, e.Kind, e.Pct, e.Dur)
	case KindDelaySpike:
		return fmt.Sprintf("%8v %s delay=%v dur=%v", e.At, e.Kind, e.Delay, e.Dur)
	case KindPartition:
		return fmt.Sprintf("%8v %s %v<->%v dur=%v", e.At, e.Kind, e.Src, e.Dst, e.Dur)
	case KindAsymPartition:
		return fmt.Sprintf("%8v %s %v->%v dur=%v", e.At, e.Kind, e.Src, e.Dst, e.Dur)
	case KindZombiePrimary:
		return fmt.Sprintf("%8v %s engine=%v peers=%d dur=%v", e.At, e.Kind, e.Src, len(e.Peers), e.Dur)
	case KindPoolCrash:
		return fmt.Sprintf("%8v %s pool=%d dur=%v", e.At, e.Kind, e.Pool, e.Dur)
	default:
		return fmt.Sprintf("%8v %s", e.At, e.Kind)
	}
}

// Schedule is a seeded, time-ordered fault sequence.
type Schedule struct {
	Seed   int64
	Events []Event
}

func (s Schedule) String() string {
	out := fmt.Sprintf("schedule seed=%d events=%d\n", s.Seed, len(s.Events))
	for _, e := range s.Events {
		out += "  " + e.String() + "\n"
	}
	return out
}

// Profile bounds what Generate may produce. Zero-valued fields disable the
// corresponding fault kind.
type Profile struct {
	// Horizon is the window events are scattered over.
	Horizon time.Duration
	// Events is how many events to generate.
	Events int
	// Kinds is the set of allowed fault kinds (weighted uniformly).
	Kinds []Kind

	// MaxLossPct caps loss-burst drop probability. Keep well below 1.0 on
	// default NIC timeouts: a burst that blanks every frame for longer than
	// the retry budget (the RTO doubled per retry, summed over MaxRetries+1
	// expiries: DESIGN.md §9) bricks healthy QPs through Go-Back-N retry
	// exhaustion, turning a transient fault into a permanent one.
	MaxLossPct float64
	// MaxBurst caps loss-burst and delay-spike duration.
	MaxBurst time.Duration
	// MaxDelay caps the delay-spike magnitude.
	MaxDelay time.Duration
	// MACs are the partition candidates; a (symmetric or asymmetric)
	// partition picks two distinct entries. Fewer than two entries disables
	// KindPartition and KindAsymPartition.
	MACs []wire.MAC
	// EngineMAC is the offload engine's address, the Src of every
	// KindZombiePrimary event; the zero MAC disables that kind. The zombie's
	// peer set is every entry of MACs other than EngineMAC itself.
	EngineMAC wire.MAC
	// Pools is the pool replica count; KindPoolCrash picks Pool in [0,Pools).
	Pools int
	// PoolDownFor, when > 0, restarts crashed pools after this long;
	// 0 leaves them down.
	PoolDownFor time.Duration
}

// Generate builds a deterministic schedule: the same (seed, profile) pair
// always yields the identical event list. Only the seeded source is
// consumed — no wall clock, no package-global randomness.
func Generate(seed int64, p Profile) Schedule {
	rng := rand.New(rand.NewSource(seed))
	if p.Events <= 0 || p.Horizon <= 0 || len(p.Kinds) == 0 {
		return Schedule{Seed: seed}
	}
	s := Schedule{Seed: seed}
	for i := 0; i < p.Events; i++ {
		e := Event{
			At:   time.Duration(rng.Int63n(int64(p.Horizon))),
			Kind: p.Kinds[rng.Intn(len(p.Kinds))],
		}
		switch e.Kind {
		case KindLossBurst:
			if p.MaxLossPct <= 0 || p.MaxBurst <= 0 {
				continue
			}
			e.Pct = rng.Float64() * p.MaxLossPct
			e.Dur = 1 + time.Duration(rng.Int63n(int64(p.MaxBurst)))
		case KindDelaySpike:
			if p.MaxDelay <= 0 || p.MaxBurst <= 0 {
				continue
			}
			e.Delay = 1 + time.Duration(rng.Int63n(int64(p.MaxDelay)))
			e.Dur = 1 + time.Duration(rng.Int63n(int64(p.MaxBurst)))
		case KindPartition, KindAsymPartition:
			if len(p.MACs) < 2 || p.MaxBurst <= 0 {
				continue
			}
			a := rng.Intn(len(p.MACs))
			b := rng.Intn(len(p.MACs) - 1)
			if b >= a {
				b++
			}
			e.Src, e.Dst = p.MACs[a], p.MACs[b]
			e.Dur = 1 + time.Duration(rng.Int63n(int64(p.MaxBurst)))
		case KindZombiePrimary:
			if p.EngineMAC == (wire.MAC{}) || p.MaxBurst <= 0 {
				continue
			}
			e.Src = p.EngineMAC
			for _, m := range p.MACs {
				if m != p.EngineMAC {
					e.Peers = append(e.Peers, m)
				}
			}
			if len(e.Peers) == 0 {
				continue
			}
			e.Dur = 1 + time.Duration(rng.Int63n(int64(p.MaxBurst)))
		case KindPoolCrash:
			if p.Pools <= 0 {
				continue
			}
			e.Pool = rng.Intn(p.Pools)
			e.Dur = p.PoolDownFor
		case KindEnginePreempt:
			// no parameters
		}
		s.Events = append(s.Events, e)
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s
}
