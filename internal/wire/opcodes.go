// Package wire implements the RoCEv2 (RDMA over Converged Ethernet v2)
// packet formats that Cowbird generates, recycles, and parses: Ethernet,
// IPv4, UDP, the InfiniBand Base Transport Header (BTH), the RDMA Extended
// Transport Header (RETH), the ACK Extended Transport Header (AETH), and the
// invariant CRC trailer (ICRC).
//
// Decoding is allocation-free: Packet.DecodeFromBytes parses into a
// preallocated Packet whose Payload aliases the input buffer (the gopacket
// DecodingLayer idiom). Serialization writes all layers in one pass into a
// caller-supplied buffer.
package wire

// OpCode is the 8-bit BTH opcode. The upper 3 bits select the transport
// service (000 = Reliable Connection); the lower 5 bits select the message
// role. Cowbird uses the RC opcodes only.
type OpCode uint8

// Reliable Connection opcodes of RDMA READ and WRITE, the only verbs Cowbird
// posts, and of their acknowledgment. SEND and atomic opcodes are not
// implemented and decode as ErrBadOpcode.
const (
	OpWriteFirst         OpCode = 0x06
	OpWriteMiddle        OpCode = 0x07
	OpWriteLast          OpCode = 0x08
	OpWriteOnly          OpCode = 0x0A
	OpReadRequest        OpCode = 0x0C
	OpReadResponseFirst  OpCode = 0x0D
	OpReadResponseMiddle OpCode = 0x0E
	OpReadResponseLast   OpCode = 0x0F
	OpReadResponseOnly   OpCode = 0x10
	OpAcknowledge        OpCode = 0x11
)

// opAttr describes which extension headers and fields accompany an opcode.
type opAttr struct {
	name       string
	hasRETH    bool // RDMA extended transport header (VA, rkey, length)
	hasAETH    bool // ACK extended transport header (syndrome, MSN)
	hasPayload bool
	request    bool // initiated by a requester (consumes a request PSN)
}

// opTable is the dense lookup used on the datapath: opcode attribute checks
// run for every header of every frame, so they index an array instead of
// hashing into opAttrs (the map remains the readable source of truth).
var opTable [256]opAttr

// opValid marks the opcodes this stack implements (a zero opAttr is
// indistinguishable from an unknown opcode in opTable alone).
var opValid [256]bool

func init() {
	for op, a := range opAttrs {
		opTable[op] = a
		opValid[op] = true
	}
}

var opAttrs = map[OpCode]opAttr{
	OpWriteFirst:         {name: "RDMA_WRITE_FIRST", hasRETH: true, hasPayload: true, request: true},
	OpWriteMiddle:        {name: "RDMA_WRITE_MIDDLE", hasPayload: true, request: true},
	OpWriteLast:          {name: "RDMA_WRITE_LAST", hasPayload: true, request: true},
	OpWriteOnly:          {name: "RDMA_WRITE_ONLY", hasRETH: true, hasPayload: true, request: true},
	OpReadRequest:        {name: "RDMA_READ_REQUEST", hasRETH: true, request: true},
	OpReadResponseFirst:  {name: "RDMA_READ_RESPONSE_FIRST", hasAETH: true, hasPayload: true},
	OpReadResponseMiddle: {name: "RDMA_READ_RESPONSE_MIDDLE", hasPayload: true},
	OpReadResponseLast:   {name: "RDMA_READ_RESPONSE_LAST", hasAETH: true, hasPayload: true},
	OpReadResponseOnly:   {name: "RDMA_READ_RESPONSE_ONLY", hasAETH: true, hasPayload: true},
	OpAcknowledge:        {name: "ACKNOWLEDGE", hasAETH: true},
}

// String returns the InfiniBand-spec name of the opcode.
func (op OpCode) String() string {
	if opValid[op] {
		return opTable[op].name
	}
	return "UNKNOWN_OPCODE"
}

// Valid reports whether the opcode is one this stack implements.
func (op OpCode) Valid() bool { return opValid[op] }

// HasRETH reports whether packets with this opcode carry a RETH.
func (op OpCode) HasRETH() bool { return opTable[op].hasRETH }

// HasAETH reports whether packets with this opcode carry an AETH.
func (op OpCode) HasAETH() bool { return opTable[op].hasAETH }

// HasPayload reports whether packets with this opcode carry data.
func (op OpCode) HasPayload() bool { return opTable[op].hasPayload }

// IsRequest reports whether the opcode is requester-initiated.
func (op OpCode) IsRequest() bool { return opTable[op].request }

// IsReadResponse reports whether the opcode is one of the four read
// response opcodes. Cowbird-P4 recycles these into RDMA writes.
func (op OpCode) IsReadResponse() bool {
	switch op {
	case OpReadResponseFirst, OpReadResponseMiddle, OpReadResponseLast, OpReadResponseOnly:
		return true
	}
	return false
}

// IsWrite reports whether the opcode is one of the four RDMA write opcodes.
func (op OpCode) IsWrite() bool {
	switch op {
	case OpWriteFirst, OpWriteMiddle, OpWriteLast, OpWriteOnly:
		return true
	}
	return false
}

// WriteCounterpart maps a read-response opcode to the write opcode with the
// same First/Middle/Last/Only position. This is the §5.2 Phase III
// transformation: "Cowbird-P4 will convert them into the corresponding RDMA
// Write packets: Write First, Middle, and Last."
func (op OpCode) WriteCounterpart() (OpCode, bool) {
	switch op {
	case OpReadResponseFirst:
		return OpWriteFirst, true
	case OpReadResponseMiddle:
		return OpWriteMiddle, true
	case OpReadResponseLast:
		return OpWriteLast, true
	case OpReadResponseOnly:
		return OpWriteOnly, true
	}
	return 0, false
}

// AETH syndrome values (upper 3 bits of the syndrome byte classify it).
const (
	SyndromeACK    uint8 = 0x00 // positive acknowledgment
	SyndromeRNRNAK uint8 = 0x20 // receiver not ready
	SyndromeNAKPSN uint8 = 0x60 // PSN sequence error (NAK code 0)
	SyndromeNAKInv uint8 = 0x61 // invalid request (NAK code 1)
	SyndromeNAKAcc uint8 = 0x62 // remote access error (NAK code 2)
	// SyndromeNAKFenced rejects a WRITE whose fencing epoch
	// (carried in BTH.PKey) is below the target region's fence floor: the
	// requester has been deposed by a newer epoch holder and must stop
	// serving. NAK code 3 keeps it inside the 0x60 NAK class, so
	// AETH.IsNAK covers it.
	SyndromeNAKFenced uint8 = 0x63 // stale fencing epoch (NAK code 3)
)
