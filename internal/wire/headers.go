package wire

import (
	"encoding/binary"
	"fmt"
)

// Header lengths in bytes.
const (
	EthernetLen = 14
	IPv4Len     = 20
	UDPLen      = 8
	BTHLen      = 12
	RETHLen     = 16
	AETHLen     = 4
	ICRCLen     = 4

	// RoCEv2Port is the IANA-assigned UDP destination port for RoCEv2.
	RoCEv2Port = 4791

	// EtherTypeIPv4 is the IPv4 EtherType.
	EtherTypeIPv4 = 0x0800

	// ProtoUDP is the IPv4 protocol number for UDP.
	ProtoUDP = 17
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the MAC in canonical colon notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4Addr is a 32-bit IPv4 address.
type IPv4Addr [4]byte

// String formats the address in dotted-quad notation.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Ethernet is the 14-byte Ethernet II header.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
}

func (h *Ethernet) decode(b []byte) {
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = binary.BigEndian.Uint16(b[12:14])
}

func (h *Ethernet) encode(b []byte) {
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	binary.BigEndian.PutUint16(b[12:14], h.EtherType)
}

// IPv4 is the 20-byte (optionless) IPv4 header. RoCEv2 never uses options.
type IPv4 struct {
	TOS      uint8 // DSCP/ECN; Cowbird maps network priority onto DSCP
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      IPv4Addr
	Dst      IPv4Addr
}

func (h *IPv4) decode(b []byte) error {
	if vihl := b[0]; vihl != 0x45 {
		return fmt.Errorf("wire: unsupported IPv4 version/IHL 0x%02x", vihl)
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:12])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return nil
}

func (h *IPv4) encode(b []byte) {
	b[0] = 0x45
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], 0x4000) // DF, no fragments
	b[8] = h.TTL
	b[9] = h.Protocol
	binary.BigEndian.PutUint16(b[10:12], 0) // checksum filled below
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	binary.BigEndian.PutUint16(b[10:12], ipChecksum(b[:IPv4Len]))
}

// ipChecksum computes the standard Internet checksum over b.
func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// UDP is the 8-byte UDP header. RoCEv2 fixes DstPort to 4791; SrcPort is
// free entropy used for ECMP hashing.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16 // RoCEv2 transmits 0 (ICRC covers the payload)
}

func (h *UDP) decode(b []byte) {
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	h.Checksum = binary.BigEndian.Uint16(b[6:8])
}

func (h *UDP) encode(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	binary.BigEndian.PutUint16(b[6:8], h.Checksum)
}

// BTH is the 12-byte InfiniBand Base Transport Header (Table 4 of the
// paper: opcode, QPN, PSN).
type BTH struct {
	OpCode    OpCode
	SE        bool  // solicited event
	Migration bool  // MigReq bit
	PadCount  uint8 // 0..3 bytes of payload padding to a 4-byte boundary
	PKey      uint16
	DestQP    uint32 // 24 bits
	AckReq    bool
	PSN       uint32 // 24 bits
}

func (h *BTH) decode(b []byte) {
	h.OpCode = OpCode(b[0])
	h.SE = b[1]&0x80 != 0
	h.Migration = b[1]&0x40 != 0
	h.PadCount = b[1] >> 4 & 0x3
	h.PKey = binary.BigEndian.Uint16(b[2:4])
	h.DestQP = binary.BigEndian.Uint32(b[4:8]) & 0x00ffffff
	h.AckReq = b[8]&0x80 != 0
	h.PSN = binary.BigEndian.Uint32(b[8:12]) & 0x00ffffff
}

func (h *BTH) encode(b []byte) {
	b[0] = byte(h.OpCode)
	var f byte
	if h.SE {
		f |= 0x80
	}
	if h.Migration {
		f |= 0x40
	}
	f |= (h.PadCount & 0x3) << 4
	b[1] = f
	binary.BigEndian.PutUint16(b[2:4], h.PKey)
	binary.BigEndian.PutUint32(b[4:8], h.DestQP&0x00ffffff)
	var ack uint32
	if h.AckReq {
		ack = 0x80000000
	}
	binary.BigEndian.PutUint32(b[8:12], ack|h.PSN&0x00ffffff)
}

// RETH is the 16-byte RDMA Extended Transport Header carried by RDMA read
// requests and the first packet of RDMA writes (Table 4: virtual address,
// remote key, length).
type RETH struct {
	VA     uint64 // remote virtual address
	RKey   uint32 // remote key authorizing the access
	DMALen uint32 // total length of the DMA operation
}

func (h *RETH) decode(b []byte) {
	h.VA = binary.BigEndian.Uint64(b[0:8])
	h.RKey = binary.BigEndian.Uint32(b[8:12])
	h.DMALen = binary.BigEndian.Uint32(b[12:16])
}

func (h *RETH) encode(b []byte) {
	binary.BigEndian.PutUint64(b[0:8], h.VA)
	binary.BigEndian.PutUint32(b[8:12], h.RKey)
	binary.BigEndian.PutUint32(b[12:16], h.DMALen)
}

// AETH is the 4-byte ACK Extended Transport Header carried by read responses
// and acknowledgments (Table 4: syndrome, MSN).
type AETH struct {
	Syndrome uint8
	MSN      uint32 // 24 bits: message sequence number
}

func (h *AETH) decode(b []byte) {
	v := binary.BigEndian.Uint32(b[0:4])
	h.Syndrome = uint8(v >> 24)
	h.MSN = v & 0x00ffffff
}

func (h *AETH) encode(b []byte) {
	binary.BigEndian.PutUint32(b[0:4], uint32(h.Syndrome)<<24|h.MSN&0x00ffffff)
}

// IsNAK reports whether the syndrome encodes a negative acknowledgment.
func (h *AETH) IsNAK() bool { return h.Syndrome&0x60 == 0x60 }
