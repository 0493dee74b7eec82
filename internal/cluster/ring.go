// Package cluster is the fleet-scale placement layer: a consistent-hash
// ring assigning tenant queue sets to engines, a region directory composing
// multiple memnodes into one remote address space (the Clio CBoard role —
// a tenant's regions stripe across memnodes transparently), and the QoS
// primitives (token bucket, deficit round-robin quanta) the spot engine's
// serve loop uses to keep a noisy tenant from starving peers.
//
// The package is pure policy: it knows nothing about QPs, rings, or frames.
// internal/system turns its decisions into wiring, and
// internal/engine/spot enforces its QoS numbers inside the serve loop.
package cluster

import "sort"

// hash64 is splitmix64: cheap, well-distributed, and stable across runs —
// placement must be a pure function of (member, replica) and key so every
// process in a deployment computes the same ring.
func hash64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// point is one virtual node on the ring.
type point struct {
	hash   uint64
	member int
}

// Ring is a consistent-hash ring over integer member ids (engine indices).
// Each member contributes vnodes virtual points, so load spreads evenly and
// membership changes move only ~1/n of the keyspace. Not safe for
// concurrent use, and the fleet adds no lock: its control plane (membership
// changes and lookups alike) runs on a single goroutine.
type Ring struct {
	vnodes  int
	points  []point
	members map[int]bool
}

// DefaultVNodes balances placement smoothness against ring size; 64 points
// per member keeps the max/min load ratio under ~1.3 for small fleets.
const DefaultVNodes = 64

// NewRing builds an empty ring; vnodes <= 0 takes DefaultVNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[int]bool)}
}

// Add inserts a member's virtual points. Adding a present member is a no-op.
func (r *Ring) Add(member int) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for v := 0; v < r.vnodes; v++ {
		// Double-hash to keep the vnode domain disjoint from the key domain:
		// Owner hashes raw keys once, so a single-hashed vnode input of
		// member<<20|v collides exactly with key k = member<<20|v — member
		// 0's vnodes would sit precisely on the hashes of small tenant ids
		// and own them forever regardless of later membership.
		h := hash64(hash64(uint64(member)<<20 | uint64(v)))
		r.points = append(r.points, point{hash: h, member: member})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member's virtual points. Removing an absent member is a
// no-op.
func (r *Ring) Remove(member int) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the member owning key: the first virtual point clockwise
// from the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key uint64) (member int, ok bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member, true
}

// Members returns the current membership in ascending order.
func (r *Ring) Members() []int {
	out := make([]int, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }
