package ha

import (
	"strings"
	"testing"

	"cowbird/internal/core"
	"cowbird/internal/ctl"
	"cowbird/internal/engine/spot"
	"cowbird/internal/rdma"
)

// TestSetupWiresOneQueue: the setup op carries one compute and one pool
// endpoint, which are one queue set's. A setup for an instance with more
// queues is refused with an error naming the limit and registers nothing,
// in active and in standby mode; a one-queue setup is accepted.
func TestSetupWiresOneQueue(t *testing.T) {
	for _, standby := range []bool{false, true} {
		f := rdma.NewFabric()
		t.Cleanup(f.Close)
		nic := rdma.NewNIC(f, ctl.EngineMAC, ctl.EngineIP, rdma.DefaultConfig())
		t.Cleanup(nic.Close)
		eng := spot.New(nic, spot.DefaultConfig()) // never Run: the peerless QPs carry nothing
		t.Cleanup(eng.Stop)
		ec := NewEngineControl(eng, nil, nic, ctl.EngineMAC, ctl.EngineIP, standby)

		setup := func(id, queues int) ctl.Response {
			in := &core.Instance{ID: id, Queues: make([]core.QueueInfo, queues), Regions: []core.RegionInfo{{ID: 0, Size: 4096}}}
			ep := &ctl.QPEndpoint{QPN: 7, MAC: ctl.ComputeMAC, IP: ctl.ComputeIP, FirstPSN: 100}
			return ec.Handle(ctl.Request{Op: "setup", Instance: in, Compute: ep, Pool: ep})
		}
		registered := func() int {
			if standby {
				ec.Standby().mu.Lock()
				defer ec.Standby().mu.Unlock()
				return len(ec.Standby().pending)
			}
			return len(eng.Instances())
		}

		resp := setup(1, 2)
		if !strings.Contains(resp.Err, "2 queues") || !strings.Contains(resp.Err, "exactly 1") {
			t.Fatalf("standby=%v: 2-queue setup answered %+v, want an error naming the 1-queue limit", standby, resp)
		}
		if resp.EngineToCompute != nil || registered() != 0 {
			t.Fatalf("standby=%v: refused setup left %d registrations, endpoints %+v", standby, registered(), resp.EngineToCompute)
		}
		if resp := setup(2, 1); resp.Err != "" || resp.EngineToCompute == nil || resp.EngineToPool == nil || registered() != 1 {
			t.Fatalf("standby=%v: 1-queue setup answered %+v with %d registrations", standby, resp, registered())
		}
	}
}
