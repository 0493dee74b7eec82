package ha

import (
	"errors"
	"sync"

	"cowbird/internal/core"
	"cowbird/internal/ctl"
	"cowbird/internal/engine/spot"
	"cowbird/internal/rdma"
	"cowbird/internal/telemetry"
	"cowbird/internal/wire"
)

// EngineControl is the engine-process side of the control plane
// (cmd/cowbird-engine), factored out of the command so the standby path is
// testable in-process. It serves the same Phase I ops as before —
// add_peer_addr and setup — plus, in standby mode, the promote op that
// triggers the takeover.
//
// Active mode:  setup wires QPs and hands the instance to the (running)
// engine immediately.
// Standby mode: setup wires QPs but only registers the instance with a
// Standby; the engine stays cold until a promote request arrives (sent by
// whoever observed the primary's lease expire — typically the compute node
// reacting to Monitor.OnDeath).
type EngineControl struct {
	eng     *spot.Engine
	bridge  *rdma.UDPBridge
	nic     *rdma.NIC
	mac     wire.MAC
	ip      wire.IPv4Addr
	standby *Standby // nil in active mode
	reg     *telemetry.Registry

	mu      sync.Mutex
	nextPSN uint32
}

// NewEngineControl builds the handler. In active mode the caller runs the
// engine; in standby mode the engine must be left cold — promotion starts
// it.
func NewEngineControl(eng *spot.Engine, bridge *rdma.UDPBridge, nic *rdma.NIC, mac wire.MAC, ip wire.IPv4Addr, standby bool) *EngineControl {
	ec := &EngineControl{eng: eng, bridge: bridge, nic: nic, mac: mac, ip: ip, nextPSN: 0x5000}
	if standby {
		ec.standby = NewStandby(eng)
	}
	return ec
}

// Standby returns the standby wrapper (nil in active mode).
func (ec *EngineControl) Standby() *Standby { return ec.standby }

// SetTelemetry installs the registry the "telemetry" control op snapshots.
// Call before serving; a nil registry (the default) makes the op report that
// telemetry is disabled.
func (ec *EngineControl) SetTelemetry(reg *telemetry.Registry) { ec.reg = reg }

// Handle serves one control request; pass it to ctl.Serve.
func (ec *EngineControl) Handle(req ctl.Request) ctl.Response {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	switch req.Op {
	case "add_peer_addr":
		if req.Remote == nil || req.PeerAddr == "" {
			return ctl.Response{Err: "add_peer_addr needs remote MAC and addr"}
		}
		if err := ec.bridge.AddPeer(req.Remote.MAC, req.PeerAddr); err != nil {
			return ctl.Response{Err: err.Error()}
		}
		return ctl.Response{}
	case "setup":
		if ec.eng.Fenced() {
			return ctl.Response{Err: "setup: engine fenced (superseded by a newer epoch)", Fenced: true}
		}
		if req.Instance == nil || req.Compute == nil || req.Pool == nil {
			return ctl.Response{Err: "setup needs instance, compute, and pool endpoints"}
		}
		compPSN, poolPSN := ec.nextPSN, ec.nextPSN+0x1000
		ec.nextPSN += 0x2000
		unused := rdma.NewCQ()
		eComp := ec.nic.CreateQP(ec.eng.CQ(), unused, compPSN)
		eMem := ec.nic.CreateQP(ec.eng.CQ(), unused, poolPSN)
		eComp.Connect(rdma.RemoteEndpoint{
			QPN: req.Compute.QPN, MAC: req.Compute.MAC, IP: req.Compute.IP,
		}, req.Compute.FirstPSN)
		eMem.Connect(rdma.RemoteEndpoint{
			QPN: req.Pool.QPN, MAC: req.Pool.MAC, IP: req.Pool.IP,
		}, req.Pool.FirstPSN)
		reg := spot.Registration{
			Instance:  req.Instance,
			ComputeQP: eComp,
			Pools:     []spot.PoolReplica{{QP: eMem, Regions: req.Instance.Regions}},
		}
		register := ec.eng.Register
		if ec.standby != nil {
			register = ec.standby.Register
		}
		if err := register(reg); err != nil {
			return ctl.Response{Err: err.Error()}
		}
		return ctl.Response{
			EngineToCompute: &ctl.QPEndpoint{QPN: eComp.QPN(), MAC: ec.mac, IP: ec.ip, FirstPSN: compPSN},
			EngineToPool:    &ctl.QPEndpoint{QPN: eMem.QPN(), MAC: ec.mac, IP: ec.ip, FirstPSN: poolPSN},
		}
	case "promote":
		if ec.standby == nil {
			return ctl.Response{Err: "promote: engine is not a standby"}
		}
		if ec.eng.Fenced() {
			return ctl.Response{Err: "promote: engine fenced (superseded by a newer epoch)", Fenced: true}
		}
		if err := ec.standby.Promote(); err != nil {
			// A promotion raced by a newer epoch is a demotion of this
			// standby, not a transient fault: mark it so CallRetry fails fast.
			return ctl.Response{Err: err.Error(), Fenced: errors.Is(err, core.ErrFenced)}
		}
		return ctl.Response{}
	case "telemetry":
		if ec.reg == nil {
			return ctl.Response{Err: "telemetry: not enabled on this engine (start with -telemetry)"}
		}
		snap := ec.reg.Snapshot()
		return ctl.Response{Telemetry: &snap}
	}
	return ctl.Response{Err: "unknown op " + req.Op}
}
