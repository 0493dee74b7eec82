package main

import (
	"encoding/binary"
	"math/bits"
)

// mix64 is the splitmix64 finalizer: the one hash behind the op stream and
// the data pattern.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// prng is a splitmix64 stream. The benchmark owns its generator so the op
// sequence for a seed cannot change under it with a Go release.
type prng struct{ s uint64 }

func newPRNG(seed int64, stream uint64) *prng {
	return &prng{s: mix64(uint64(seed)) ^ mix64(stream*0xD1342543DE82EF95+1)}
}

func (p *prng) next() uint64 {
	x := mix64(p.s)
	p.s += 0x9E3779B97F4A7C15
	return x
}

// below draws uniformly from [0, n) (multiply-shift; n is far below 2^32 in
// every workload, so the bias is negligible).
func (p *prng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(p.next(), n)
	return hi
}

// opKind is what one generated operation does.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// rawOp is one generated operation on a block-addressed space: the program
// under test sees nothing of the generator but these.
type rawOp struct {
	kind  opKind
	block uint32 // block index; byte offset = block * op size
}

// opGen draws block operations: kind by writePermille, block uniformly.
type opGen struct {
	rng           *prng
	blocks        uint64
	writePermille uint64
}

func newOpGen(seed int64, stream uint64, blocks int, writePermille int) *opGen {
	return &opGen{rng: newPRNG(seed, stream), blocks: uint64(blocks), writePermille: uint64(writePermille)}
}

func (g *opGen) next() rawOp {
	op := rawOp{block: uint32(g.rng.below(g.blocks))}
	if g.writePermille > 0 && g.rng.below(1000) < g.writePermille {
		op.kind = opWrite
	}
	return op
}

// pattern is the verifiable content f(seed, space, block, version): every
// 8-byte word of a block is a hash of the run's seed, the address space the
// block belongs to (a region, a tenant stripe, the KV keyspace), the block
// index and how many times the block has been written. A read that returns
// another block's bytes, a stale version or a torn mix fails the compare.
type pattern struct{ seed uint64 }

func newPattern(seed int64) pattern { return pattern{seed: mix64(uint64(seed) ^ 0xC0B1D)} }

func (p pattern) key(space, block, version uint32) uint64 {
	k := mix64(p.seed + uint64(space))
	k = mix64(k ^ uint64(block))
	return mix64(k + uint64(version))
}

// fill writes the block's content into buf (len a multiple of 8).
func (p pattern) fill(buf []byte, space, block, version uint32) {
	k := p.key(space, block, version)
	for i := 0; i+8 <= len(buf); i += 8 {
		k += 0x9E3779B97F4A7C15
		binary.LittleEndian.PutUint64(buf[i:], mix64(k))
	}
}

// check reports whether buf holds exactly the block's content.
func (p pattern) check(buf []byte, space, block, version uint32) bool {
	k := p.key(space, block, version)
	for i := 0; i+8 <= len(buf); i += 8 {
		k += 0x9E3779B97F4A7C15
		if binary.LittleEndian.Uint64(buf[i:]) != mix64(k) {
			return false
		}
	}
	return true
}
