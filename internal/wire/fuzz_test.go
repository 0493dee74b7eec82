package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeFromBytes drives the decoder with arbitrary bytes, seeded with
// one valid frame per implemented opcode. The decoder must never panic, and
// any frame it accepts must survive a serialize → decode round trip with
// its semantic fields intact (the property Go-Back-N replay depends on:
// re-emitting a parsed packet reproduces the original).
func FuzzDecodeFromBytes(f *testing.F) {
	for op := range opAttrs {
		var payload []byte
		if op.HasPayload() {
			payload = []byte("fuzz seed payload")
		}
		frame, err := samplePacket(op, payload).Serialize()
		if err != nil {
			f.Fatalf("seed %v: %v", op, err)
		}
		f.Add(frame)
	}
	// Structurally broken seeds steer the fuzzer at the error paths.
	for _, op := range unimplementedOpcodes {
		f.Add(withOpcode(op))
	}
	f.Add([]byte{})
	f.Add(make([]byte, EthernetLen+IPv4Len+UDPLen+BTHLen+ICRCLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		if err := p.DecodeFromBytes(data); err != nil {
			return // rejected input: only property is "no panic"
		}
		reFrame, err := p.Serialize()
		if err != nil {
			t.Fatalf("decoded packet failed to serialize: %v\npacket: %v", err, &p)
		}
		var re Packet
		if err := re.DecodeFromBytes(reFrame); err != nil {
			t.Fatalf("re-serialized frame failed to decode: %v\npacket: %v", err, &p)
		}
		// Compare the invariant fields. Variant fields (IP TOS/TTL/checksum,
		// UDP checksum, lengths, ICRC) are recomputed or masked by design.
		if re.BTH.OpCode != p.BTH.OpCode || re.BTH.DestQP != p.BTH.DestQP ||
			re.BTH.PSN != p.BTH.PSN || re.BTH.AckReq != p.BTH.AckReq {
			t.Fatalf("BTH changed: %+v -> %+v", p.BTH, re.BTH)
		}
		if re.Eth != p.Eth {
			t.Fatalf("Ethernet changed: %+v -> %+v", p.Eth, re.Eth)
		}
		if re.IP.Src != p.IP.Src || re.IP.Dst != p.IP.Dst {
			t.Fatalf("IP addresses changed: %+v -> %+v", p.IP, re.IP)
		}
		if re.UDP.SrcPort != p.UDP.SrcPort || re.UDP.DstPort != p.UDP.DstPort {
			t.Fatalf("UDP ports changed: %+v -> %+v", p.UDP, re.UDP)
		}
		op := p.BTH.OpCode
		if op.HasRETH() && re.RETH != p.RETH {
			t.Fatalf("RETH changed: %+v -> %+v", p.RETH, re.RETH)
		}
		if op.HasAETH() && re.AETH != p.AETH {
			t.Fatalf("AETH changed: %+v -> %+v", p.AETH, re.AETH)
		}
		if op.HasPayload() && !bytes.Equal(re.Payload, p.Payload) {
			t.Fatalf("payload changed: %q -> %q", p.Payload, re.Payload)
		}
	})
}

// FuzzSerializeInto checks the pooled-emit path against the allocating one:
// for any decodable frame, SerializeInto must produce byte-identical output
// regardless of the scratch buffer's capacity.
func FuzzSerializeInto(f *testing.F) {
	for op := range opAttrs {
		var payload []byte
		if op.HasPayload() {
			payload = []byte{1, 2, 3, 4, 5}
		}
		frame, err := samplePacket(op, payload).Serialize()
		if err != nil {
			f.Fatalf("seed %v: %v", op, err)
		}
		f.Add(frame, 0)
	}
	for _, op := range unimplementedOpcodes {
		f.Add(withOpcode(op), 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, spare int) {
		var p Packet
		if err := p.DecodeFromBytes(data); err != nil {
			return
		}
		want, err := p.Serialize()
		if err != nil {
			t.Fatalf("Serialize: %v", err)
		}
		if spare < 0 {
			spare = -spare
		}
		spare %= 64
		got, err := p.SerializeInto(make([]byte, 0, spare))
		if err != nil {
			t.Fatalf("SerializeInto: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("SerializeInto diverged from Serialize:\n got %x\nwant %x", got, want)
		}
	})
}
