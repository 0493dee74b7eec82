package main

import "testing"

func opsOf(seed int64, stream uint64, n int) []rawOp {
	g := newOpGen(seed, stream, 4096, 500)
	out := make([]rawOp, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestSameSeedSameOps(t *testing.T) {
	a, b := opsOf(9, 0, 5000), opsOf(9, 0, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two generators with the same seed: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedOrStreamDifferentOps(t *testing.T) {
	base := opsOf(9, 0, 5000)
	for name, other := range map[string][]rawOp{"seed": opsOf(10, 0, 5000), "stream": opsOf(9, 1, 5000)} {
		same := 0
		for i := range base {
			if base[i] == other[i] {
				same++
			}
		}
		if same > len(base)/100 {
			t.Errorf("another %s repeats %d of %d ops", name, same, len(base))
		}
	}
}

func TestOpMixAndRange(t *testing.T) {
	writes := 0
	ops := opsOf(3, 0, 20000)
	for _, op := range ops {
		if op.block >= 4096 {
			t.Fatalf("block %d out of range", op.block)
		}
		if op.kind == opWrite {
			writes++
		}
	}
	if writes < 9500 || writes > 10500 {
		t.Errorf("%d writes of %d ops at 500 permille", writes, len(ops))
	}
	g := newOpGen(3, 0, 4096, 0)
	for i := 0; i < 1000; i++ {
		if g.next().kind != opRead {
			t.Fatal("a read-only generator drew a write")
		}
	}
}

func TestPatternTellsBlocksAndVersionsApart(t *testing.T) {
	p := newPattern(5)
	buf := make([]byte, 64)
	p.fill(buf, 1, 77, 3)
	if !p.check(buf, 1, 77, 3) {
		t.Fatal("a block does not verify against itself")
	}
	for name, ok := range map[string]bool{
		"other version": p.check(buf, 1, 77, 2),
		"other block":   p.check(buf, 1, 78, 3),
		"other space":   p.check(buf, 2, 77, 3),
		"other seed":    newPattern(6).check(buf, 1, 77, 3),
	} {
		if ok {
			t.Errorf("%s verified against the wrong content", name)
		}
	}
	buf[63] ^= 1
	if p.check(buf, 1, 77, 3) {
		t.Error("a flipped bit in the last word went unnoticed")
	}
}
