package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Packet is a fully parsed RoCEv2 frame. A zero Packet is ready for
// DecodeFromBytes; reusing one Packet across decodes performs no allocation
// (the DecodingLayerParser idiom from gopacket).
type Packet struct {
	Eth  Ethernet
	IP   IPv4
	UDP  UDP
	BTH  BTH
	RETH RETH // valid iff BTH.OpCode.HasRETH()
	AETH AETH // valid iff BTH.OpCode.HasAETH()

	// Payload aliases the decode buffer (or, when building a packet, the
	// caller's data); it excludes pad bytes and the ICRC.
	Payload []byte

	// ICRC is the received or computed invariant CRC.
	ICRC uint32

	// icrcScratch holds the masked pseudo-header during ICRC computation so
	// that decoding a reused Packet performs no heap allocation.
	icrcScratch [IPv4Len + UDPLen]byte
}

// Decode/serialize errors.
var (
	ErrTruncated   = errors.New("wire: truncated packet")
	ErrNotRoCE     = errors.New("wire: not a RoCEv2 packet")
	ErrBadOpcode   = errors.New("wire: unknown BTH opcode")
	ErrBadICRC     = errors.New("wire: ICRC mismatch")
	ErrShortBuffer = errors.New("wire: serialization buffer too small")
)

// icrcTable is the CRC-32C table used for the invariant CRC. (The IB spec
// uses the CRC-32 polynomial; Castagnoli here is an acceptable stand-in
// because both ends of this stack agree. Every frame carries one and every
// decode checks it, the switch's included: the paper's §5.1 footnote turns
// the check off on the hosts because a Tofino cannot compute ICRCs, and
// this software switch can.)
var icrcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of data using the same Castagnoli table as
// the ICRC trailer. The replica scrubber uses it as its per-chunk content
// checksum, so scrub and wire integrity share one polynomial and one table.
func Checksum(data []byte) uint32 {
	return crc32.Update(0, icrcTable, data)
}

// headerLen returns the total length of all headers for op, excluding
// payload and ICRC.
func headerLen(op OpCode) int {
	n := EthernetLen + IPv4Len + UDPLen + BTHLen
	if op.HasRETH() {
		n += RETHLen
	}
	if op.HasAETH() {
		n += AETHLen
	}
	return n
}

// WireLen returns the full on-the-wire length of a packet with opcode op and
// a payload of payloadLen bytes (including pad and ICRC).
func WireLen(op OpCode, payloadLen int) int {
	pad := (4 - payloadLen%4) % 4
	return headerLen(op) + payloadLen + pad + ICRCLen
}

// DecodeFromBytes parses a full RoCEv2 frame. On success p's fields describe
// the frame and p.Payload aliases buf. buf must not be modified while p is
// in use.
func (p *Packet) DecodeFromBytes(buf []byte) error {
	if len(buf) < EthernetLen+IPv4Len+UDPLen+BTHLen+ICRCLen {
		return ErrTruncated
	}
	p.Eth.decode(buf)
	if p.Eth.EtherType != EtherTypeIPv4 {
		return fmt.Errorf("%w: ethertype 0x%04x", ErrNotRoCE, p.Eth.EtherType)
	}
	off := EthernetLen
	if err := p.IP.decode(buf[off:]); err != nil {
		return err
	}
	if p.IP.Protocol != ProtoUDP {
		return fmt.Errorf("%w: IP protocol %d", ErrNotRoCE, p.IP.Protocol)
	}
	off += IPv4Len
	p.UDP.decode(buf[off:])
	if p.UDP.DstPort != RoCEv2Port {
		return fmt.Errorf("%w: UDP port %d", ErrNotRoCE, p.UDP.DstPort)
	}
	off += UDPLen
	p.BTH.decode(buf[off:])
	if !p.BTH.OpCode.Valid() {
		return fmt.Errorf("%w: 0x%02x", ErrBadOpcode, byte(p.BTH.OpCode))
	}
	off += BTHLen
	op := p.BTH.OpCode
	if op.HasRETH() {
		if len(buf) < off+RETHLen {
			return ErrTruncated
		}
		p.RETH.decode(buf[off:])
		off += RETHLen
	}
	if op.HasAETH() {
		if len(buf) < off+AETHLen {
			return ErrTruncated
		}
		p.AETH.decode(buf[off:])
		off += AETHLen
	}
	end := len(buf) - ICRCLen
	if end < off {
		return ErrTruncated
	}
	pad := int(p.BTH.PadCount)
	if end-off < pad {
		return ErrTruncated
	}
	p.Payload = buf[off : end-pad]
	p.ICRC = uint32(buf[end])<<24 | uint32(buf[end+1])<<16 | uint32(buf[end+2])<<8 | uint32(buf[end+3])
	if want := p.computeICRC(buf[:end]); want != p.ICRC {
		return fmt.Errorf("%w: got 0x%08x want 0x%08x", ErrBadICRC, p.ICRC, want)
	}
	return nil
}

// computeICRC computes the invariant CRC over the frame with variant fields
// (IP TOS, TTL, checksum; UDP checksum) masked, per the RoCEv2 ICRC rules.
func (p *Packet) computeICRC(frame []byte) uint32 {
	// The invariant CRC excludes the Ethernet header and masks fields that
	// routers may rewrite. Rather than copy the frame, fold the masked
	// regions in pieces.
	masked := &p.icrcScratch
	copy(masked[:], frame[EthernetLen:EthernetLen+IPv4Len+UDPLen])
	masked[1] = 0xff                    // TOS
	masked[8] = 0xff                    // TTL
	masked[10], masked[11] = 0xff, 0xff // IP checksum
	masked[26], masked[27] = 0xff, 0xff // UDP checksum
	crc := crc32.Update(0, icrcTable, masked[:])
	return crc32.Update(crc, icrcTable, frame[EthernetLen+IPv4Len+UDPLen:])
}

// SerializeTo writes the complete frame into buf and returns its length.
// It fills in the length-dependent fields (IP TotalLen, UDP Length, BTH
// PadCount) and the IP checksum and ICRC trailer. p.Payload supplies the
// data for opcodes that carry one.
func (p *Packet) SerializeTo(buf []byte) (int, error) {
	op := p.BTH.OpCode
	if !op.Valid() {
		return 0, fmt.Errorf("%w: 0x%02x", ErrBadOpcode, byte(op))
	}
	payload := p.Payload
	if !op.HasPayload() {
		payload = nil
	}
	total := WireLen(op, len(payload))
	if len(buf) < total {
		return 0, fmt.Errorf("%w: need %d, have %d", ErrShortBuffer, total, len(buf))
	}
	pad := (4 - len(payload)%4) % 4

	p.Eth.EtherType = EtherTypeIPv4
	p.IP.Protocol = ProtoUDP
	if p.IP.TTL == 0 {
		p.IP.TTL = 64
	}
	p.IP.TotalLen = uint16(total - EthernetLen)
	p.UDP.DstPort = RoCEv2Port
	p.UDP.Length = uint16(total - EthernetLen - IPv4Len)
	p.BTH.PadCount = uint8(pad)

	p.Eth.encode(buf)
	off := EthernetLen
	p.IP.encode(buf[off:])
	off += IPv4Len
	p.UDP.encode(buf[off:])
	off += UDPLen
	p.BTH.encode(buf[off:])
	off += BTHLen
	if op.HasRETH() {
		p.RETH.encode(buf[off:])
		off += RETHLen
	}
	if op.HasAETH() {
		p.AETH.encode(buf[off:])
		off += AETHLen
	}
	copy(buf[off:], payload)
	off += len(payload)
	for i := 0; i < pad; i++ {
		buf[off+i] = 0
	}
	off += pad
	p.ICRC = p.computeICRC(buf[:off])
	buf[off] = byte(p.ICRC >> 24)
	buf[off+1] = byte(p.ICRC >> 16)
	buf[off+2] = byte(p.ICRC >> 8)
	buf[off+3] = byte(p.ICRC)
	return off + ICRCLen, nil
}

// SerializeInto serializes the frame into buf's backing array when its
// capacity suffices (reslicing as needed) and allocates a right-sized buffer
// otherwise. It returns the encoded frame. This is the pooled-emit path: the
// caller hands in a recycled frame buffer and sends whatever comes back.
func (p *Packet) SerializeInto(buf []byte) ([]byte, error) {
	op := p.BTH.OpCode
	if !op.Valid() {
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadOpcode, byte(op))
	}
	n := 0
	if op.HasPayload() {
		n = len(p.Payload)
	}
	total := WireLen(op, n)
	if cap(buf) < total {
		buf = make([]byte, total)
	} else {
		buf = buf[:total]
	}
	if _, err := p.SerializeTo(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Serialize allocates a right-sized buffer and serializes into it.
func (p *Packet) Serialize() ([]byte, error) {
	op := p.BTH.OpCode
	if !op.Valid() {
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadOpcode, byte(op))
	}
	n := 0
	if op.HasPayload() {
		n = len(p.Payload)
	}
	buf := make([]byte, WireLen(op, n))
	if _, err := p.SerializeTo(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// String summarizes the packet for logs and test failures.
func (p *Packet) String() string {
	s := fmt.Sprintf("%s qp=%d psn=%d", p.BTH.OpCode, p.BTH.DestQP, p.BTH.PSN)
	if p.BTH.OpCode.HasRETH() {
		s += fmt.Sprintf(" va=0x%x rkey=0x%x len=%d", p.RETH.VA, p.RETH.RKey, p.RETH.DMALen)
	}
	if p.BTH.OpCode.HasAETH() {
		s += fmt.Sprintf(" syn=0x%02x msn=%d", p.AETH.Syndrome, p.AETH.MSN)
	}
	if n := len(p.Payload); n > 0 {
		s += fmt.Sprintf(" payload=%dB", n)
	}
	return s
}
