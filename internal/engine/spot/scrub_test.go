package spot

import (
	"bytes"
	"testing"
	"time"
)

// TestReadRepairOnDivergentChunk: while a chunk is marked divergent (the
// scrubber's detect phase ran but its repair has not yet converged the
// replicas), a READ overlapping that chunk serves the primary's bytes AND
// pushes them to every live non-primary replica — the read's range is
// repaired as a side effect of serving it.
func TestReadRepairOnDivergentChunk(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	h := wireReplicated(t, 2, cfg)
	th, _ := h.client.Thread(0)

	data := bytes.Repeat([]byte{0x4D}, 256)
	if err := th.WriteSync(0, data, 4096, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Corrupt replica 1 out-of-band and mark the chunk divergent, exactly as
	// the scrubber's detect phase would.
	if err := h.pools[1].Poke(0, 4096, bytes.Repeat([]byte{0xEE}, 256)); err != nil {
		t.Fatal(err)
	}
	inst := h.eng.insts.Load().instances[0]
	k := divKey{region: 0, chunk: uint32(4096 / h.eng.scrubChunk)}
	inst.markDivergent(k)

	dest := make([]byte, 256)
	if err := th.ReadSync(0, 4096, dest, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dest, data) {
		t.Fatal("read over a divergent chunk returned non-primary bytes")
	}

	// The read's range converged on replica 1 without any scrub pass.
	got, err := h.pools[1].Peek(0, 4096, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-repair did not rewrite the divergent range on replica 1")
	}
	if n := h.eng.Stats().ReadRepairs; n < 1 {
		t.Fatalf("ReadRepairs = %d, want >= 1", n)
	}

	// The mark is the scrubber's to clear — read-repair fixed only the bytes
	// this read touched, so the chunk stays flagged until a full pass.
	if inst.divCount.Load() != 1 {
		t.Fatalf("divergent count %d after read-repair, want 1 (scrubber clears it)", inst.divCount.Load())
	}
	if err := h.eng.ScrubPass(); err != nil {
		t.Fatal(err)
	}
	if inst.divCount.Load() != 0 {
		t.Fatalf("divergent count %d after scrub pass, want 0", inst.divCount.Load())
	}
}
