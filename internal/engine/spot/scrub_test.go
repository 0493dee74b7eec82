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

// TestScrubPlacedMirror: region 0 placed on pool 0 alone, region 1 mirrored
// on pools 0 and 1. A READ straddling a divergent chunk of region 1 repairs
// its range on the other home, a scrub pass repairs the rest of region 1
// from its first live home, and region 0 — with one home, nothing to compare
// — is never read by the scrubber.
func TestScrubPlacedMirror(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	h := wirePools(t, cfg, []uint16{0, 1}, []uint16{1})
	th, _ := h.client.Thread(0)

	a := bytes.Repeat([]byte{0x4D}, 256)
	b := bytes.Repeat([]byte{0x2E}, 128)
	for _, w := range []struct {
		region uint16
		off    uint64
		data   []byte
	}{{0, 4096, b}, {1, 4096, a}, {1, 200 << 10, b}} {
		if err := th.WriteSync(w.region, w.data, w.off, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := h.pools[1].Peek(1, 200<<10, 128); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("region 1's second home missed a write: %v", err)
	}

	// Read-repair: corrupt region 1 on its second home and mark the chunk
	// divergent, as the scrubber's detect phase would.
	if err := h.pools[1].Poke(1, 4096, bytes.Repeat([]byte{0xEE}, 256)); err != nil {
		t.Fatal(err)
	}
	inst := h.eng.insts.Load().instances[0]
	inst.markDivergent(divKey{region: 1, chunk: uint32(4096 / h.eng.scrubChunk)})
	dest := make([]byte, 256)
	if err := th.ReadSync(1, 4096, dest, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dest, a) {
		t.Fatal("read over a divergent chunk returned the second home's bytes")
	}
	if got, _ := h.pools[1].Peek(1, 4096, 256); !bytes.Equal(got, a) {
		t.Fatal("read-repair did not rewrite the divergent range on the second home")
	}
	if n := h.eng.Stats().ReadRepairs; n != 1 {
		t.Fatalf("ReadRepairs = %d, want 1", n)
	}

	// Scrub: corrupt another chunk of region 1 out of band.
	if err := h.pools[1].Poke(1, 200<<10, bytes.Repeat([]byte{0xEE}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := h.eng.ScrubPass(); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.pools[1].Peek(1, 200<<10, 128); !bytes.Equal(got, b) {
		t.Fatal("scrub did not repair region 1 on its second home")
	}
	st := h.eng.Stats()
	if st.ScrubRepairs != 1 || inst.divCount.Load() != 0 {
		t.Fatalf("ScrubRepairs = %d, divergent chunks left %d; want 1 and 0", st.ScrubRepairs, inst.divCount.Load())
	}
	if want := int64(1<<20) / int64(h.eng.scrubChunk); st.ScrubChunks != want {
		t.Fatalf("ScrubChunks = %d, want %d (region 1 only)", st.ScrubChunks, want)
	}
}
