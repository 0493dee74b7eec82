package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func samplePacket(op OpCode, payload []byte) *Packet {
	p := &Packet{}
	p.Eth.Src = MAC{0x02, 0, 0, 0, 0, 1}
	p.Eth.Dst = MAC{0x02, 0, 0, 0, 0, 2}
	p.IP.Src = IPv4Addr{10, 0, 0, 1}
	p.IP.Dst = IPv4Addr{10, 0, 0, 2}
	p.IP.TOS = 0x08
	p.UDP.SrcPort = 49152
	p.BTH.OpCode = op
	p.BTH.DestQP = 0x1234
	p.BTH.PSN = 0x00abcdef & 0x00ffffff
	p.BTH.AckReq = true
	p.RETH = RETH{VA: 0xdeadbeefcafe, RKey: 0x77, DMALen: uint32(len(payload))}
	p.AETH = AETH{Syndrome: SyndromeACK, MSN: 42}
	p.Payload = payload
	return p
}

func roundTrip(t *testing.T, op OpCode, payload []byte) *Packet {
	t.Helper()
	in := samplePacket(op, payload)
	frame, err := in.Serialize()
	if err != nil {
		t.Fatalf("Serialize(%v): %v", op, err)
	}
	var out Packet
	if err := out.DecodeFromBytes(frame); err != nil {
		t.Fatalf("DecodeFromBytes(%v): %v", op, err)
	}
	return &out
}

func TestRoundTripAllOpcodes(t *testing.T) {
	for op := range opAttrs {
		var payload []byte
		if op.HasPayload() {
			payload = []byte("hello, remote memory!")
		}
		out := roundTrip(t, op, payload)
		if out.BTH.OpCode != op {
			t.Errorf("opcode %v round-tripped as %v", op, out.BTH.OpCode)
		}
		if out.BTH.DestQP != 0x1234 || out.BTH.PSN != 0x00abcdef {
			t.Errorf("%v: BTH fields lost: %+v", op, out.BTH)
		}
		if !out.BTH.AckReq {
			t.Errorf("%v: AckReq lost", op)
		}
		if op.HasRETH() && (out.RETH.VA != 0xdeadbeefcafe || out.RETH.RKey != 0x77) {
			t.Errorf("%v: RETH lost: %+v", op, out.RETH)
		}
		if op.HasAETH() && (out.AETH.Syndrome != SyndromeACK || out.AETH.MSN != 42) {
			t.Errorf("%v: AETH lost: %+v", op, out.AETH)
		}
		if op.HasPayload() && !bytes.Equal(out.Payload, payload) {
			t.Errorf("%v: payload lost: %q", op, out.Payload)
		}
		if !op.HasPayload() && len(out.Payload) != 0 {
			t.Errorf("%v: unexpected payload %q", op, out.Payload)
		}
	}
}

func TestPayloadPadding(t *testing.T) {
	for size := 0; size <= 9; size++ {
		payload := bytes.Repeat([]byte{0xab}, size)
		out := roundTrip(t, OpWriteOnly, payload)
		if !bytes.Equal(out.Payload, payload) {
			t.Errorf("size %d: payload corrupted by padding", size)
		}
		if want := (4 - size%4) % 4; int(out.BTH.PadCount) != want {
			t.Errorf("size %d: PadCount = %d, want %d", size, out.BTH.PadCount, want)
		}
	}
}

func TestWireLen(t *testing.T) {
	cases := []struct {
		op      OpCode
		payload int
		want    int
	}{
		{OpAcknowledge, 0, 14 + 20 + 8 + 12 + 4 + 4},
		{OpReadRequest, 0, 14 + 20 + 8 + 12 + 16 + 4},
		{OpWriteOnly, 256, 14 + 20 + 8 + 12 + 16 + 256 + 4},
		{OpWriteOnly, 255, 14 + 20 + 8 + 12 + 16 + 256 + 4}, // 1 pad byte
		{OpReadResponseOnly, 64, 14 + 20 + 8 + 12 + 4 + 64 + 4},
	}
	for _, c := range cases {
		if got := WireLen(c.op, c.payload); got != c.want {
			t.Errorf("WireLen(%v, %d) = %d, want %d", c.op, c.payload, got, c.want)
		}
	}
}

func TestICRCDetectsCorruption(t *testing.T) {
	in := samplePacket(OpWriteOnly, []byte("payload-bytes"))
	frame, err := in.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every byte position (except variant fields the ICRC
	// deliberately ignores) and confirm detection.
	variant := map[int]bool{
		15: true,           // IP TOS
		22: true,           // TTL
		24: true, 25: true, // IP checksum
		40: true, 41: true, // UDP checksum
	}
	for i := EthernetLen; i < len(frame); i++ {
		if variant[i] {
			continue
		}
		corrupted := append([]byte(nil), frame...)
		corrupted[i] ^= 0x01
		var out Packet
		err := out.DecodeFromBytes(corrupted)
		if err == nil && i >= EthernetLen {
			// Corrupting pad-count or length fields may legitimately fail
			// differently, but silent acceptance is always wrong.
			t.Errorf("bit flip at offset %d went undetected", i)
		}
	}
}

func TestICRCIgnoresVariantFields(t *testing.T) {
	in := samplePacket(OpAcknowledge, nil)
	frame, err := in.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	// A router decrementing TTL (and fixing the IP checksum) must not break
	// the invariant CRC.
	mod := append([]byte(nil), frame...)
	mod[22]--
	var hdr IPv4
	_ = hdr
	// Recompute IP checksum.
	mod[24], mod[25] = 0, 0
	ck := ipChecksum(mod[EthernetLen : EthernetLen+IPv4Len])
	mod[24], mod[25] = byte(ck>>8), byte(ck)
	var out Packet
	if err := out.DecodeFromBytes(mod); err != nil {
		t.Fatalf("TTL rewrite broke ICRC: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var p Packet
	cases := [][]byte{
		nil,
		make([]byte, 10),
		make([]byte, EthernetLen+IPv4Len+UDPLen+BTHLen+ICRCLen), // zero ethertype
	}
	for i, c := range cases {
		if err := p.DecodeFromBytes(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestDecodeRejectsWrongPort(t *testing.T) {
	in := samplePacket(OpAcknowledge, nil)
	frame, _ := in.Serialize()
	frame[EthernetLen+IPv4Len+2] = 0x12 // clobber dst port
	frame[EthernetLen+IPv4Len+3] = 0x34
	var out Packet
	if err := out.DecodeFromBytes(frame); err == nil {
		t.Fatal("non-RoCE port accepted")
	}
}

func TestDecodeRejectsBadOpcode(t *testing.T) {
	in := samplePacket(OpAcknowledge, nil)
	frame, _ := in.Serialize()
	frame[EthernetLen+IPv4Len+UDPLen] = 0x3f // reserved opcode
	var out Packet
	if err := out.DecodeFromBytes(frame); err == nil {
		t.Fatal("reserved opcode accepted")
	}
}

// unimplementedOpcodes are the RC SEND (First, Middle, Last, Only) and atomic
// (Acknowledge, CompareSwap, FetchAdd) opcodes. This stack posts neither
// kind, so a frame carrying one is outside input.
var unimplementedOpcodes = []byte{0x00, 0x01, 0x02, 0x04, 0x12, 0x13, 0x14}

// withOpcode returns a valid frame whose BTH opcode byte is overwritten.
func withOpcode(op byte) []byte {
	frame, _ := samplePacket(OpAcknowledge, nil).Serialize()
	frame[EthernetLen+IPv4Len+UDPLen] = op
	return frame
}

func TestRemovedOpcodesRejected(t *testing.T) {
	for _, op := range unimplementedOpcodes {
		frame := withOpcode(op)
		var out Packet
		if err := out.DecodeFromBytes(frame); !errors.Is(err, ErrBadOpcode) {
			t.Errorf("opcode 0x%02x: err = %v, want ErrBadOpcode", op, err)
		}
	}
}

func TestTruncationNeverPanics(t *testing.T) {
	in := samplePacket(OpWriteFirst, bytes.Repeat([]byte{1}, 100))
	frame, _ := in.Serialize()
	var out Packet
	for n := 0; n < len(frame); n++ {
		_ = out.DecodeFromBytes(frame[:n]) // must not panic
	}
}

func TestWriteCounterpart(t *testing.T) {
	pairs := map[OpCode]OpCode{
		OpReadResponseFirst:  OpWriteFirst,
		OpReadResponseMiddle: OpWriteMiddle,
		OpReadResponseLast:   OpWriteLast,
		OpReadResponseOnly:   OpWriteOnly,
	}
	for in, want := range pairs {
		got, ok := in.WriteCounterpart()
		if !ok || got != want {
			t.Errorf("WriteCounterpart(%v) = %v,%v; want %v", in, got, ok, want)
		}
	}
	if _, ok := OpAcknowledge.WriteCounterpart(); ok {
		t.Error("ACK has a write counterpart")
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !OpReadResponseMiddle.IsReadResponse() || OpWriteLast.IsReadResponse() {
		t.Error("IsReadResponse misclassifies")
	}
	if !OpWriteFirst.IsWrite() || OpReadRequest.IsWrite() {
		t.Error("IsWrite misclassifies")
	}
	if !OpReadRequest.IsRequest() || OpAcknowledge.IsRequest() {
		t.Error("IsRequest misclassifies")
	}
	if OpCode(0x3f).Valid() {
		t.Error("reserved opcode claims validity")
	}
	if OpCode(0x3f).String() != "UNKNOWN_OPCODE" {
		t.Error("unknown opcode String")
	}
}

func TestAETHNAK(t *testing.T) {
	for _, c := range []struct {
		syn uint8
		nak bool
	}{
		{SyndromeACK, false},
		{SyndromeRNRNAK, false},
		{SyndromeNAKPSN, true},
		{SyndromeNAKInv, true},
		{SyndromeNAKAcc, true},
	} {
		a := AETH{Syndrome: c.syn}
		if a.IsNAK() != c.nak {
			t.Errorf("IsNAK(0x%02x) = %v, want %v", c.syn, a.IsNAK(), c.nak)
		}
	}
}

// Property: serialize→decode is the identity on (opcode, QP, PSN, payload)
// for arbitrary payloads.
func TestQuickRoundTrip(t *testing.T) {
	ops := []OpCode{OpWriteOnly, OpReadResponseOnly, OpWriteLast, OpWriteMiddle}
	f := func(opIdx uint8, qp, psn uint32, payload []byte) bool {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		op := ops[int(opIdx)%len(ops)]
		in := samplePacket(op, payload)
		in.BTH.DestQP = qp & 0x00ffffff
		in.BTH.PSN = psn & 0x00ffffff
		frame, err := in.Serialize()
		if err != nil {
			return false
		}
		var out Packet
		if err := out.DecodeFromBytes(frame); err != nil {
			return false
		}
		return out.BTH.DestQP == qp&0x00ffffff &&
			out.BTH.PSN == psn&0x00ffffff &&
			bytes.Equal(out.Payload, payload)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeReusesPacketWithoutAllocation(t *testing.T) {
	in := samplePacket(OpWriteOnly, bytes.Repeat([]byte{7}, 512))
	frame, _ := in.Serialize()
	var out Packet
	allocs := testing.AllocsPerRun(200, func() {
		if err := out.DecodeFromBytes(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("DecodeFromBytes allocates %v times per run; want 0", allocs)
	}
}

func TestStringForms(t *testing.T) {
	in := samplePacket(OpReadRequest, nil)
	s := in.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	if (MAC{1, 2, 3, 4, 5, 6}).String() != "01:02:03:04:05:06" {
		t.Error("MAC.String")
	}
	if (IPv4Addr{192, 168, 0, 1}).String() != "192.168.0.1" {
		t.Error("IPv4Addr.String")
	}
}

func BenchmarkSerialize(b *testing.B) {
	in := samplePacket(OpWriteOnly, bytes.Repeat([]byte{7}, 1024))
	buf := make([]byte, 2048)
	b.SetBytes(int64(WireLen(OpWriteOnly, 1024)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.SerializeTo(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	in := samplePacket(OpWriteOnly, bytes.Repeat([]byte{7}, 1024))
	frame, _ := in.Serialize()
	var out Packet
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := out.DecodeFromBytes(frame); err != nil {
			b.Fatal(err)
		}
	}
}
