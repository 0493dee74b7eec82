package p4

import "fmt"

// This file models the RMT pipeline layout of Cowbird-P4 and derives the
// data-plane resource usage the paper reports in Table 5 for a 32-port L3
// forwarding Tofino switch. The numbers are computed from the declared
// stage/table/register structure below — not hard-coded — so changes to the
// pipeline model show up in the accounting.

// StageSpec is one match-action stage of the pipeline.
type StageSpec struct {
	Name string
	// Tables in this stage.
	Tables []TableSpec
	// Registers are stateful ALU-backed register arrays (one sALU each).
	Registers []RegisterSpec
	// VLIW is the number of action (VLIW) instructions issued.
	VLIW int
}

// TableSpec is one match-action table.
type TableSpec struct {
	Name    string
	Entries int
	KeyBits int
	Ternary bool // TCAM vs exact-match SRAM
}

// RegisterSpec is one stateful register array.
type RegisterSpec struct {
	Name      string
	Entries   int
	WidthBits int
}

// Resources mirrors Table 5 of the paper.
type Resources struct {
	PHVBits   int
	SRAMKB    float64
	TCAMKB    float64
	Stages    int
	VLIWInstr int
	SALUs     int
}

// String renders the Table 5 row.
func (r Resources) String() string {
	return fmt.Sprintf("PHV %d b | SRAM %.0f KB | TCAM %.2f KB | stages %d | VLIW %d | sALU %d",
		r.PHVBits, r.SRAMKB, r.TCAMKB, r.Stages, r.VLIWInstr, r.SALUs)
}

// maxInstances is the worst case the paper assumes: every one of the 32
// ports runs Cowbird-P4.
const maxInstances = 32

// Pipeline returns the Cowbird-P4 stage layout: parsing and L3 forwarding,
// QPN-to-instance lookup, per-queue register blocks (head/tail views, PSNs,
// pending-op table), the recycling transformations, and the probe generator
// interface (§5.2, §5.4).
func Pipeline() []StageSpec {
	return []StageSpec{
		{
			Name: "parse+l3",
			Tables: []TableSpec{
				{Name: "ipv4_lpm", Entries: 320, KeyBits: 32, Ternary: true},
				{Name: "l2_fwd", Entries: 4096, KeyBits: 48},
			},
			VLIW: 4,
		},
		{
			Name: "classify",
			Tables: []TableSpec{
				{Name: "qpn_to_instance", Entries: 2 * maxInstances, KeyBits: 24},
				{Name: "opcode_dispatch", Entries: 32, KeyBits: 8},
			},
			VLIW: 3,
		},
		{
			Name: "probe_tdm",
			Registers: []RegisterSpec{
				{Name: "rr_cursor", Entries: 1, WidthBits: 32},
				{Name: "probe_outstanding", Entries: maxInstances * 16, WidthBits: 8},
			},
			VLIW: 3,
		},
		{
			Name: "queue_view_tail",
			Registers: []RegisterSpec{
				{Name: "meta_tail_view", Entries: maxInstances * 16, WidthBits: 64},
			},
			VLIW: 2,
		},
		{
			Name: "queue_view_head",
			Registers: []RegisterSpec{
				{Name: "meta_head", Entries: maxInstances * 16, WidthBits: 64},
			},
			VLIW: 2,
		},
		{
			Name: "psn_compute",
			Registers: []RegisterSpec{
				{Name: "comp_psn", Entries: maxInstances, WidthBits: 32},
			},
			VLIW: 3,
		},
		{
			Name: "psn_pool",
			Registers: []RegisterSpec{
				{Name: "pool_psn", Entries: maxInstances, WidthBits: 32},
			},
			VLIW: 3,
		},
		{
			Name: "pending_ops",
			Tables: []TableSpec{
				// The §5.2 "hash table" mapping in-flight PSNs to response
				// addresses.
				{Name: "psn_to_ctx", Entries: 81920, KeyBits: 48},
			},
			Registers: []RegisterSpec{
				{Name: "ctx_resp_addr", Entries: 81920, WidthBits: 64},
			},
			VLIW: 4,
		},
		{
			Name: "pause_reads",
			Registers: []RegisterSpec{
				{Name: "writes_in_flight", Entries: maxInstances, WidthBits: 16},
			},
			VLIW: 3,
		},
		{
			Name: "recycle_headers",
			Tables: []TableSpec{
				{Name: "opcode_rewrite", Entries: 16, KeyBits: 8},
			},
			VLIW: 5, // strip AETH, add RETH, rewrite BTH/IP/UDP, lengths
		},
		{
			Name: "bookkeeping",
			Registers: []RegisterSpec{
				{Name: "progress_counters", Entries: maxInstances * 16, WidthBits: 64},
				{Name: "req_data_head", Entries: maxInstances * 16, WidthBits: 64},
				// Phase IV coalescing (queueState.open, sinceRed): requests
				// in flight and completions since the last red write, two
				// 16-bit halves updated by one read-modify-write.
				{Name: "phase4_open", Entries: maxInstances * 16, WidthBits: 32},
			},
			VLIW: 4, // + recycle-or-consume on the register's output
		},
		{
			// §5.3 recovery, as Process keeps it: every in-flight exchange's
			// issue time on the engine clock (pendingOp.created, 32-bit ns —
			// ages are compared modulo 4.3 s, far above any Timeout), each
			// instance's state and drain deadline (inst.state, drainUntil),
			// its backlog of requests to re-issue (inst.backlog; the resync
			// window's in-flight count is the sum of its queues'
			// phase4_open), and the generator's next scan of the pending
			// table (Engine.nextScan).
			Name: "timeout_gbn",
			Registers: []RegisterSpec{
				{Name: "ctx_issued_at", Entries: 81920, WidthBits: 32},
				{Name: "recovery_state", Entries: maxInstances, WidthBits: 64},
				{Name: "resync_backlog", Entries: maxInstances, WidthBits: 16},
				{Name: "next_scan", Entries: 1, WidthBits: 48},
			},
			VLIW: 3,
		},
	}
}

// phvFields lists the packet-header-vector fields the pipeline carries
// (bits): standard headers plus Cowbird metadata.
func phvFields() map[string]int {
	return map[string]int{
		"eth_dst":        48,
		"eth_src":        48,
		"eth_type":       16,
		"ipv4_meta":      8 + 16 + 8 + 16, // tos, len, ttl, cksum
		"ipv4_addrs":     64,
		"udp":            64,
		"bth":            96,
		"reth":           128,
		"aeth":           32,
		"instance_id":    16,
		"queue_id":       16,
		"opcode_class":   8,
		"psn_ext":        32,
		"ctx_resp_addr":  64,
		"ctx_len":        32,
		"green_metatail": 64,
		"red_block_img":  256, // staged bookkeeping write payload
		"bridged_meta":   53,  // intrinsic + bridged metadata
	}
}

// ComputeResources derives the Table 5 row from the pipeline declaration.
func ComputeResources() Resources {
	var r Resources
	stages := Pipeline()
	r.Stages = len(stages)
	for _, f := range phvFields() {
		r.PHVBits += f
	}
	for _, s := range stages {
		r.VLIWInstr += s.VLIW
		r.SALUs += len(s.Registers)
		for _, t := range s.Tables {
			bits := t.Entries * (t.KeyBits + 24) // key + action data/overhead
			kb := float64(bits) / 8 / 1024
			if t.Ternary {
				r.TCAMKB += float64(t.Entries*t.KeyBits) / 8 / 1024
			} else {
				r.SRAMKB += kb
			}
		}
		for _, reg := range s.Registers {
			r.SRAMKB += float64(reg.Entries*reg.WidthBits) / 8 / 1024
		}
	}
	return r
}
