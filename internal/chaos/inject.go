package chaos

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
)

// Target is the set of handles an Injector drives faults through. Any field
// may be nil/empty; events without a matching handle are skipped.
type Target struct {
	// Fabric receives the loss predicate (partitions + probabilistic loss)
	// and delay spikes (as latency). Required.
	Fabric *rdma.Fabric
	// Pools are the memory pool replicas KindPoolCrash targets, indexed by
	// Event.Pool.
	Pools []*memnode.Node
	// PreemptEngine revokes the offload engine (e.g. spot.Engine.Preempt).
	PreemptEngine func()
}

// Injector replays a Schedule against a Target. It owns the fabric's loss
// predicate for its lifetime: partitions and probabilistic loss compose into
// the single installed function.
type Injector struct {
	tgt  Target
	part *rdma.Partition

	mu  sync.Mutex // guards rng and pct (the probabilistic-loss state)
	rng *rand.Rand
	pct float64

	drops atomic.Int64
}

// NewInjector installs an injector on the target. The seed drives the
// per-frame loss coin flips; schedule timing comes from Run's argument.
// Call Close to restore the fabric's knobs.
func NewInjector(tgt Target, seed int64) *Injector {
	inj := &Injector{
		tgt:  tgt,
		part: rdma.NewPartition(),
		rng:  rand.New(rand.NewSource(seed)),
	}
	tgt.Fabric.SetLossFn(inj.lossFn)
	return inj
}

// lossFn is the composed frame-drop predicate: partitioned pairs drop
// deterministically; otherwise a seeded coin weighted by the active burst's
// Pct decides.
func (inj *Injector) lossFn(frame []byte) bool {
	if inj.part.Drops(frame) {
		inj.drops.Add(1)
		return true
	}
	inj.mu.Lock()
	drop := inj.pct > 0 && inj.rng.Float64() < inj.pct
	inj.mu.Unlock()
	if drop {
		inj.drops.Add(1)
	}
	return drop
}

// Drops returns how many frames the injector has discarded so far
// (partition drops plus loss-burst coin flips).
func (inj *Injector) Drops() int64 { return inj.drops.Load() }

// Partition exposes the injector's partition for tests that steer pairs
// directly in addition to (or instead of) a schedule.
func (inj *Injector) Partition() *rdma.Partition { return inj.part }

// action is one timed knob flip: an event's application or its revert.
type action struct {
	at time.Duration
	fn func()
}

// Run replays the schedule in real time and returns when the last apply or
// revert has fired. Faults overlap freely; reverts restore each knob to its
// quiescent value (loss 0, latency 0, pair healed), so schedules should avoid
// overlapping two events of the same kind if the tail of one must outlive
// the head of the next.
func (inj *Injector) Run(s Schedule) {
	var acts []action
	for _, e := range s.Events {
		e := e
		switch e.Kind {
		case KindLossBurst:
			acts = append(acts, action{e.At, func() { inj.setPct(e.Pct) }})
			acts = append(acts, action{e.At + e.Dur, func() { inj.setPct(0) }})
		case KindDelaySpike:
			acts = append(acts, action{e.At, func() { inj.tgt.Fabric.SetLatency(e.Delay) }})
			acts = append(acts, action{e.At + e.Dur, func() { inj.tgt.Fabric.SetLatency(0) }})
		case KindPartition:
			acts = append(acts, action{e.At, func() { inj.part.Block(e.Src, e.Dst) }})
			acts = append(acts, action{e.At + e.Dur, func() { inj.part.Heal(e.Src, e.Dst) }})
		case KindAsymPartition:
			// Heal clears both directions, which is exactly right: only the
			// one installed here exists for this pair.
			acts = append(acts, action{e.At, func() { inj.part.BlockOneWay(e.Src, e.Dst) }})
			acts = append(acts, action{e.At + e.Dur, func() { inj.part.Heal(e.Src, e.Dst) }})
		case KindZombiePrimary:
			acts = append(acts, action{e.At, func() {
				for _, peer := range e.Peers {
					inj.part.Block(e.Src, peer)
				}
			}})
			acts = append(acts, action{e.At + e.Dur, func() {
				for _, peer := range e.Peers {
					inj.part.Heal(e.Src, peer)
				}
			}})
		case KindPoolCrash:
			if e.Pool < 0 || e.Pool >= len(inj.tgt.Pools) {
				continue
			}
			pool := inj.tgt.Pools[e.Pool]
			acts = append(acts, action{e.At, pool.Crash})
			if e.Dur > 0 {
				acts = append(acts, action{e.At + e.Dur, pool.Restart})
			}
		case KindEnginePreempt:
			if inj.tgt.PreemptEngine == nil {
				continue
			}
			acts = append(acts, action{e.At, inj.tgt.PreemptEngine})
		}
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].at < acts[j].at })
	var elapsed time.Duration
	for _, a := range acts {
		if d := a.at - elapsed; d > 0 {
			time.Sleep(d)
			elapsed = a.at
		}
		a.fn()
	}
}

func (inj *Injector) setPct(p float64) {
	inj.mu.Lock()
	inj.pct = p
	inj.mu.Unlock()
}

// Close quiesces every knob the injector owns: loss predicate removed,
// partitions healed, latency cleared. Crashed pools stay crashed — a fault
// with durable consequences is not un-happened by the injector going away.
func (inj *Injector) Close() {
	inj.tgt.Fabric.SetLossFn(nil)
	inj.tgt.Fabric.SetLatency(0)
	inj.part.HealAll()
	inj.setPct(0)
}
