package ctl

import (
	"context"
	"fmt"
	"sync"

	"cowbird/internal/core"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/wire"
)

// The first PSNs of the compute QP and the pool QP of every Setup. Each QP
// numbers its own PSN space, so one pair serves every queue set.
const (
	computePSN = 2000
	poolPSN    = 4000
)

// RDMA returns e as the remote endpoint a local QP connects to.
func (e *QPEndpoint) RDMA() rdma.RemoteEndpoint {
	return rdma.RemoteEndpoint{QPN: e.QPN, MAC: e.MAC, IP: e.IP}
}

// ServeAddPeer serves add_peer_addr over bridge: the role whose MAC is
// req.Remote.MAC receives data-plane frames on UDP address req.PeerAddr.
func ServeAddPeer(bridge *rdma.UDPBridge, req Request) Response {
	if req.Remote == nil || req.PeerAddr == "" {
		return Response{Err: "add_peer_addr needs remote MAC and addr"}
	}
	if err := bridge.AddPeer(req.Remote.MAC, req.PeerAddr); err != nil {
		return Response{Err: err.Error()}
	}
	return Response{}
}

// MemnodeHandler is the memory pool's control handler (cmd/cowbird-memnode):
// add_peer_addr over bridge, and alloc_region, create_qp and connect_qp on
// node. Requests arrive from outside the process, so a missing endpoint or
// an unknown QPN is an error response, never a panic.
func MemnodeHandler(node *memnode.Node, bridge *rdma.UDPBridge) Handler {
	var mu sync.Mutex
	qps := make(map[uint32]*rdma.QP)
	return func(req Request) Response {
		switch req.Op {
		case "add_peer_addr":
			return ServeAddPeer(bridge, req)
		case "alloc_region":
			info, err := node.AllocRegion(req.RegionID, int(req.Size))
			if err != nil {
				return Response{Err: err.Error()}
			}
			return Response{Region: &info}
		case "create_qp":
			qp := node.NIC().CreateQP(rdma.NewCQ(), nil, req.FirstPSN)
			mu.Lock()
			qps[qp.QPN()] = qp
			mu.Unlock()
			return Response{QPN: qp.QPN()}
		case "connect_qp":
			mu.Lock()
			qp, ok := qps[req.QPN]
			mu.Unlock()
			if !ok || req.Remote == nil {
				return Response{Err: fmt.Sprintf("connect_qp: unknown QPN %d or missing remote", req.QPN)}
			}
			qp.Connect(req.Remote.RDMA(), req.Remote.FirstPSN)
			return Response{}
		}
		return Response{Err: "unknown op " + req.Op}
	}
}

// AddPeer tells the process serving ctlAddr that the role whose MAC is mac
// receives data-plane frames on UDP address dataAddr.
func AddPeer(ctx context.Context, ctlAddr string, mac wire.MAC, dataAddr string) error {
	_, err := CallRetry(ctx, ctlAddr, Request{Op: "add_peer_addr", Remote: &QPEndpoint{MAC: mac}, PeerAddr: dataAddr})
	return err
}

// AllocRegion asks the memnode serving memCtl for region id of size bytes.
func AllocRegion(ctx context.Context, memCtl string, id uint16, size uint64) (core.RegionInfo, error) {
	resp, err := CallRetry(ctx, memCtl, Request{Op: "alloc_region", RegionID: id, Size: size})
	if err != nil {
		return core.RegionInfo{}, err
	}
	if resp.Region == nil {
		return core.RegionInfo{}, fmt.Errorf("ctl: %s: alloc_region answered no region", memCtl)
	}
	return *resp.Region, nil
}

// Setup is the compute side of Phase I for inst's one queue set: it creates
// the compute QP on nic, asks the memnode serving memCtl for a pool QP,
// sends setup to the engine serving engCtl, and connects both host QPs to
// the engine endpoints that come back. Every call goes through CallRetry,
// so the memnode and the engine may still be starting when Setup begins.
func Setup(ctx context.Context, nic *rdma.NIC, inst *core.Instance, memCtl, engCtl string) error {
	mResp, err := CallRetry(ctx, memCtl, Request{Op: "create_qp", FirstPSN: poolPSN})
	if err != nil {
		return err
	}
	cQP := nic.CreateQP(rdma.NewCQ(), nil, computePSN)
	sResp, err := CallRetry(ctx, engCtl, Request{
		Op:       "setup",
		Instance: inst,
		Compute:  &QPEndpoint{QPN: cQP.QPN(), MAC: nic.MAC(), IP: nic.IP(), FirstPSN: computePSN},
		Pool:     &QPEndpoint{QPN: mResp.QPN, MAC: PoolMAC, IP: PoolIP, FirstPSN: poolPSN},
	})
	if err != nil {
		return err
	}
	if sResp.EngineToCompute == nil || sResp.EngineToPool == nil {
		return fmt.Errorf("ctl: %s: setup answered no engine endpoints", engCtl)
	}
	cQP.Connect(sResp.EngineToCompute.RDMA(), sResp.EngineToCompute.FirstPSN)
	_, err = CallRetry(ctx, memCtl, Request{Op: "connect_qp", QPN: mResp.QPN, Remote: sResp.EngineToPool})
	return err
}
