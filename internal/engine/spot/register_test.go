package spot

import (
	"errors"
	"strings"
	"testing"

	"cowbird/internal/core"
	"cowbird/internal/rdma"
	"cowbird/internal/wire"
)

// TestRegisterRejections walks every reason Register refuses a Registration
// and checks that a refusal registers nothing. Validation looks only at the
// shape of the value, so the QPs need no peer.
func TestRegisterRejections(t *testing.T) {
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	nic := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 7}, wire.IPv4Addr{10, 7, 0, 7}, rdma.DefaultConfig())
	t.Cleanup(nic.Close)
	eng := New(nic, DefaultConfig())
	t.Cleanup(eng.Stop)

	in := &core.Instance{
		ID:      1,
		Queues:  []core.QueueInfo{{Index: 0}, {Index: 1}},
		Regions: []core.RegionInfo{{ID: 0, Size: 4096}, {ID: 1, Size: 4096}},
	}
	qp := func() *rdma.QP { return nic.CreateQP(eng.CQ(), rdma.NewCQ(), 100) }
	// Two pool nodes: node 0 hosts both regions, node 1 only region 1.
	pools := []PoolReplica{{QP: qp(), Regions: in.Regions}, {QP: qp(), Regions: in.Regions[1:]}}
	endpoint := func() QueueEndpoints {
		return QueueEndpoints{SendCQ: rdma.NewCQ(), ComputeQP: qp(), Pools: []*rdma.QP{qp(), qp()}}
	}
	noSendCQ, onePoolQP := endpoint(), endpoint()
	noSendCQ.SendCQ = nil
	onePoolQP.Pools = onePoolQP.Pools[:1]

	base := Registration{Instance: in, ComputeQP: qp(), Pools: pools, Homes: [][]int{{0}, {0, 1}}}
	with := func(mutate func(*Registration)) Registration {
		r := base
		mutate(&r)
		return r
	}
	for _, tc := range []struct {
		name string
		reg  Registration
		want string
	}{
		{"endpoint count differs from queue count",
			with(func(r *Registration) { r.Queues = []QueueEndpoints{endpoint()} }),
			"1 queue endpoints for 2 queues"},
		{"queue with the wrong number of pool QPs",
			with(func(r *Registration) { r.Queues = []QueueEndpoints{endpoint(), onePoolQP} }),
			"queue 1 endpoints incomplete (1 pool QPs for 2 replicas)"},
		{"queue with a nil send CQ",
			with(func(r *Registration) { r.Queues = []QueueEndpoints{noSendCQ, endpoint()} }),
			"queue 0 endpoints incomplete"},
		{"region with no home entry",
			with(func(r *Registration) { r.Homes = [][]int{{0}} }),
			"region 1 has no home entry"},
		{"empty home list",
			with(func(r *Registration) { r.Homes = [][]int{{0}, {}} }),
			"region 1 has no home replica"},
		{"home index out of range",
			with(func(r *Registration) { r.Homes = [][]int{{0}, {2}} }),
			"region 1 home 2 out of range"},
		{"home that lacks the region",
			with(func(r *Registration) { r.Homes = [][]int{{1}, {1}} }),
			"replica 1 does not host region 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := eng.Register(tc.reg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Register = %v, want an error containing %q", err, tc.want)
			}
			if ids := eng.Instances(); len(ids) != 0 {
				t.Fatalf("refused registration left instances %v behind", ids)
			}
		})
	}

	t.Run("adoption on a preempted engine", func(t *testing.T) {
		eng.Preempt()
		err := eng.Register(with(func(r *Registration) { r.Adopt = true }))
		if !errors.Is(err, ErrPreempted) {
			t.Fatalf("Register = %v, want ErrPreempted", err)
		}
		if ids := eng.Instances(); len(ids) != 0 {
			t.Fatalf("refused adoption left instances %v behind", ids)
		}
	})
}

// TestZeroTenantQoSInstallsState: installing the zero TenantQoS is not a
// no-op — the instance gets live QoS state (unlimited bucket, full-round
// quantum), which is what routes its rounds through the reserve/refund/DRR
// path. The fleet installs exactly this for every tenant.
func TestZeroTenantQoSInstallsState(t *testing.T) {
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	nic := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 8}, wire.IPv4Addr{10, 7, 0, 8}, rdma.DefaultConfig())
	t.Cleanup(nic.Close)
	eng := New(nic, DefaultConfig()) // never Run: no traffic on the peerless QPs
	t.Cleanup(eng.Stop)
	qp := func() *rdma.QP { return nic.CreateQP(eng.CQ(), rdma.NewCQ(), 100) }
	in := &core.Instance{ID: 3, Queues: []core.QueueInfo{{}}, Regions: []core.RegionInfo{{ID: 0, Size: 4096}}}
	if err := eng.Register(onePool(in, qp(), qp())); err != nil {
		t.Fatal(err)
	}
	inst := eng.insts.Load().instances[0]
	if inst.qos.Load() != nil {
		t.Fatal("a fresh registration carries QoS state")
	}
	if eng.SetTenantQoS(4, TenantQoS{}) || !eng.SetTenantQoS(3, TenantQoS{}) {
		t.Fatal("SetTenantQoS must find instance 3 and only that")
	}
	qos := inst.qos.Load()
	if qos == nil || !qos.bucket.Unlimited() || qos.quantum != eng.cfg.MaxEntriesPerRound {
		t.Fatalf("zero TenantQoS installed %+v, want an unlimited bucket and a quantum of %d", qos, eng.cfg.MaxEntriesPerRound)
	}
}
