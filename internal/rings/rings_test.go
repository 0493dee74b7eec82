package rings

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustQS(t *testing.T, base uint64, l Layout) *QueueSet {
	t.Helper()
	q, err := NewQueueSet(base, l)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestLayoutOffsets(t *testing.T) {
	l := Layout{MetaEntries: 8, ReqDataBytes: 256, RespDataBytes: 512}
	if l.GreenOffset() != 0 || l.RedOffset() != 32 {
		t.Fatal("bookkeeping offsets")
	}
	if l.MetaOffset(0) != BookkeepingSize {
		t.Fatalf("MetaOffset(0) = %d", l.MetaOffset(0))
	}
	if l.MetaOffset(3) != BookkeepingSize+3*MetaEntrySize {
		t.Fatal("MetaOffset(3)")
	}
	if l.ReqDataOffset() != BookkeepingSize+8*MetaEntrySize {
		t.Fatal("ReqDataOffset")
	}
	if l.RespDataOffset() != l.ReqDataOffset()+256 {
		t.Fatal("RespDataOffset")
	}
	if l.Total() != l.RespDataOffset()+512 {
		t.Fatal("Total")
	}
}

func TestLayoutValidate(t *testing.T) {
	bad := []Layout{
		{MetaEntries: 0, ReqDataBytes: 1, RespDataBytes: 1},
		{MetaEntries: 1, ReqDataBytes: 0, RespDataBytes: 1},
		{MetaEntries: 1, ReqDataBytes: 1, RespDataBytes: -1},
	}
	for i, l := range bad {
		if _, err := NewQueueSet(0, l); err == nil {
			t.Errorf("layout %d accepted", i)
		}
	}
	if err := DefaultLayout().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	e := Entry{Type: OpWrite, ReqAddr: 0xdeadbeef12345678, RespAddr: 0x1122334455667788, Length: 4096, RegionID: 7}
	var b [MetaEntrySize]byte
	EncodeEntry(e, b[:])
	if got := DecodeEntry(b[:]); got != e {
		t.Fatalf("round trip: %+v != %+v", got, e)
	}
}

func TestEntryPublishesTypeLast(t *testing.T) {
	// EncodeEntry must leave rw_type zero until all other fields are in
	// place. Simulate by encoding into a buffer and verifying the byte
	// write order with a tracking writer is overkill; instead verify the
	// invariant that a zeroed-type entry decodes as OpInvalid.
	var b [MetaEntrySize]byte
	EncodeEntry(Entry{Type: OpRead, ReqAddr: 1, Length: 2}, b[:])
	b[0], b[1] = 0, 0
	if DecodeEntry(b[:]).Type != OpInvalid {
		t.Fatal("zeroed rw_type must decode as invalid")
	}
}

func TestBookkeepingCodecs(t *testing.T) {
	g := Green{MetaTail: 1, ReqDataTail: 2, RespDataTail: 3, RespDataHead: 4}
	r := Red{MetaHead: 5, ReqDataHead: 6, WriteProgress: 7, ReadProgress: 8, Heartbeat: 9}
	var gb [GreenSize]byte
	var rb [RedSize]byte
	EncodeGreen(g, gb[:])
	EncodeRed(r, rb[:])
	if DecodeGreen(gb[:]) != g {
		t.Fatal("green codec")
	}
	if DecodeRed(rb[:]) != r {
		t.Fatal("red codec")
	}
}

func TestReserveRingNoWrap(t *testing.T) {
	start, next := ReserveRing(0, 100, 1024)
	if start != 0 || next != 100 {
		t.Fatalf("got %d,%d", start, next)
	}
	start, next = ReserveRing(100, 100, 1024)
	if start != 100 || next != 200 {
		t.Fatalf("got %d,%d", start, next)
	}
}

func TestReserveRingSkipsTailFragment(t *testing.T) {
	// Object of 100 bytes at position 1000 of a 1024-byte ring cannot fit
	// contiguously; the reservation must skip to the next ring origin.
	start, next := ReserveRing(1000, 100, 1024)
	if start != 1024 || next != 1124 {
		t.Fatalf("got %d,%d; want 1024,1124", start, next)
	}
	if start%1024 != 0 {
		t.Fatal("start not at ring origin")
	}
}

func TestReserveRingExactFit(t *testing.T) {
	start, next := ReserveRing(1000, 24, 1024)
	if start != 1000 || next != 1024 {
		t.Fatalf("got %d,%d", start, next)
	}
}

// Property: reservations never straddle the ring boundary and never move
// backward.
func TestQuickReserveRing(t *testing.T) {
	f := func(pos uint32, length uint16, capPow uint8) bool {
		capacity := 1 << (6 + capPow%10) // 64..32768
		l := uint32(length)%uint32(capacity) + 1
		start, next := ReserveRing(uint64(pos), l, capacity)
		if start < uint64(pos) || next != start+uint64(l) {
			return false
		}
		s := start % uint64(capacity)
		return s+uint64(l) <= uint64(capacity)
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPushReadReservesAndPublishes(t *testing.T) {
	l := Layout{MetaEntries: 4, ReqDataBytes: 256, RespDataBytes: 256}
	q := mustQS(t, 0x10000, l)
	respVA, err := q.PushRead(0x900000, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := q.Base() + uint64(l.RespDataOffset()); respVA != want {
		t.Fatalf("respVA = %#x, want %#x", respVA, want)
	}
	g := q.Green()
	if g.MetaTail != 1 || g.RespDataTail != 64 {
		t.Fatalf("green = %+v", g)
	}
	e := DecodeEntry(q.Bytes()[l.MetaOffset(0):])
	want := Entry{Type: OpRead, ReqAddr: 0x900000, RespAddr: respVA, Length: 64, RegionID: 3}
	if e != want {
		t.Fatalf("entry = %+v, want %+v", e, want)
	}
}

func TestPushWriteCopiesPayload(t *testing.T) {
	l := Layout{MetaEntries: 4, ReqDataBytes: 256, RespDataBytes: 256}
	q := mustQS(t, 0x10000, l)
	payload := []byte("write me to the memory pool.....")
	if err := q.PushWrite(payload, 0x800000, 9); err != nil {
		t.Fatal(err)
	}
	e := DecodeEntry(q.Bytes()[l.MetaOffset(0):])
	if e.Type != OpWrite || e.RespAddr != 0x800000 || e.Length != uint32(len(payload)) || e.RegionID != 9 {
		t.Fatalf("entry = %+v", e)
	}
	off := e.ReqAddr - q.Base()
	if !bytes.Equal(q.Bytes()[off:off+uint64(len(payload))], payload) {
		t.Fatal("payload not in request data ring")
	}
	g := q.Green()
	if g.MetaTail != 1 || g.ReqDataTail != uint64(len(payload)) {
		t.Fatalf("green = %+v", g)
	}
}

func TestMetaRingFull(t *testing.T) {
	l := Layout{MetaEntries: 2, ReqDataBytes: 1024, RespDataBytes: 1024}
	q := mustQS(t, 0, l)
	for i := 0; i < 2; i++ {
		if _, err := q.PushRead(0, 8, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.PushRead(0, 8, 0); err != ErrMetaFull {
		t.Fatalf("err = %v, want ErrMetaFull", err)
	}
	// Engine consuming an entry frees a slot.
	EncodeRed(Red{MetaHead: 1}, q.Bytes()[l.RedOffset():])
	if _, err := q.PushRead(0, 8, 0); err != nil {
		t.Fatalf("slot not freed: %v", err)
	}
}

func TestRespDataFullAndFree(t *testing.T) {
	l := Layout{MetaEntries: 64, ReqDataBytes: 64, RespDataBytes: 128}
	q := mustQS(t, 0, l)
	if _, err := q.PushRead(0, 100, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := q.PushRead(0, 100, 0); err != ErrRespDataFull {
		t.Fatalf("err = %v, want ErrRespDataFull", err)
	}
	q.FreeResponse(100)
	if _, err := q.PushRead(0, 100, 0); err != nil {
		t.Fatalf("space not freed: %v", err)
	}
}

func TestReqDataFull(t *testing.T) {
	l := Layout{MetaEntries: 64, ReqDataBytes: 128, RespDataBytes: 64}
	q := mustQS(t, 0, l)
	big := make([]byte, 100)
	if err := q.PushWrite(big, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := q.PushWrite(big, 0, 0); err != ErrReqDataFull {
		t.Fatalf("err = %v, want ErrReqDataFull", err)
	}
	// Engine fetching the payload frees space (it advances reqDataHead with
	// the shared reservation function).
	_, head := ReserveRing(0, 100, 128)
	EncodeRed(Red{MetaHead: 1, ReqDataHead: head}, q.Bytes()[l.RedOffset():])
	if err := q.PushWrite(big, 0, 0); err != nil {
		t.Fatalf("space not freed: %v", err)
	}
}

// A red head past its green tail is an error, not a full ring: PushWrite's
// free-space arithmetic would underflow and read "full" forever.
func TestRedAheadOfGreenIsCorrupt(t *testing.T) {
	l := Layout{MetaEntries: 64, ReqDataBytes: 1024, RespDataBytes: 1024}
	for _, red := range []Red{{MetaHead: 2, ReqDataHead: 64}, {MetaHead: 1, ReqDataHead: 128}} {
		q := mustQS(t, 0, l)
		if err := q.PushWrite(make([]byte, 64), 0, 0); err != nil {
			t.Fatal(err)
		}
		EncodeRed(red, q.Bytes()[l.RedOffset():])
		if _, err := q.PushRead(0, 8, 0); !errors.Is(err, ErrRedCorrupt) {
			t.Errorf("red %+v: PushRead err = %v, want ErrRedCorrupt", red, err)
		}
		if err := q.PushWrite(make([]byte, 8), 0, 0); !errors.Is(err, ErrRedCorrupt) {
			t.Errorf("red %+v: PushWrite err = %v, want ErrRedCorrupt", red, err)
		}
	}
}

func TestTooLarge(t *testing.T) {
	l := Layout{MetaEntries: 4, ReqDataBytes: 64, RespDataBytes: 64}
	q := mustQS(t, 0, l)
	if _, err := q.PushRead(0, 65, 0); err == nil {
		t.Fatal("oversized read accepted")
	}
	if err := q.PushWrite(make([]byte, 65), 0, 0); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestRespReservationSkipsWrap(t *testing.T) {
	l := Layout{MetaEntries: 64, ReqDataBytes: 64, RespDataBytes: 128}
	q := mustQS(t, 0x1000, l)
	// 96-byte read at offset 0, freed; next 96-byte read would start at 96
	// and wrap — it must skip to offset 0 again.
	va1, err := q.PushRead(0, 96, 0)
	if err != nil {
		t.Fatal(err)
	}
	q.FreeResponse(96)
	va2, err := q.PushRead(0, 96, 0)
	if err != nil {
		t.Fatal(err)
	}
	if va1 != va2 {
		t.Fatalf("second reservation at %#x, want wrap to %#x", va2, va1)
	}
	g := q.Green()
	if g.RespDataTail != 128+96 {
		t.Fatalf("tail = %d, want %d", g.RespDataTail, 128+96)
	}
}

func TestReadResponseRoundTrip(t *testing.T) {
	l := Layout{MetaEntries: 4, ReqDataBytes: 64, RespDataBytes: 256}
	q := mustQS(t, 0x4000, l)
	respVA, err := q.PushRead(0x99, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Engine writes the response data directly into the buffer (as DMA
	// would).
	data := bytes.Repeat([]byte{0x5A}, 32)
	off := respVA - q.Base()
	copy(q.Bytes()[off:], data)
	got := make([]byte, 32)
	q.ReadResponse(respVA, got)
	if !bytes.Equal(got, data) {
		t.Fatal("response data mismatch")
	}
}

func TestProgressCounters(t *testing.T) {
	q := mustQS(t, 0, DefaultLayout())
	w, r := q.Progress()
	if w != 0 || r != 0 {
		t.Fatal("nonzero initial progress")
	}
	EncodeRed(Red{WriteProgress: 11, ReadProgress: 22}, q.Bytes()[q.Layout().RedOffset():])
	w, r = q.Progress()
	if w != 11 || r != 22 {
		t.Fatalf("progress = %d,%d", w, r)
	}
}

func TestPendingEntries(t *testing.T) {
	q := mustQS(t, 0, DefaultLayout())
	if q.PendingEntries() != 0 {
		t.Fatal("pending on empty set")
	}
	if _, err := q.PushRead(0, 8, 0); err != nil {
		t.Fatal(err)
	}
	if err := q.PushWrite([]byte{1}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if q.PendingEntries() != 2 {
		t.Fatalf("pending = %d", q.PendingEntries())
	}
}

func TestVAsAreDisjointAndOrdered(t *testing.T) {
	q := mustQS(t, 0xABC000, DefaultLayout())
	l := q.Layout()
	if q.GreenVA() != 0xABC000 {
		t.Fatal("GreenVA")
	}
	if q.RedVA() != 0xABC000+uint64(GreenSize) {
		t.Fatal("RedVA")
	}
	if q.MetaVA(0) != 0xABC000+uint64(BookkeepingSize) {
		t.Fatal("MetaVA")
	}
	if q.MetaVA(1)-q.MetaVA(0) != MetaEntrySize {
		t.Fatal("MetaVA stride")
	}
	_ = l
}

// Property: a mixed sequence of pushes, engine consumption, and frees keeps
// the rings consistent: entries decode to what was pushed, in order, and
// space accounting never corrupts payloads.
func TestQuickMixedTraffic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := Layout{MetaEntries: 8, ReqDataBytes: 512, RespDataBytes: 512}
		q, err := NewQueueSet(0x1000, l)
		if err != nil {
			return false
		}
		type pushed struct {
			e       Entry
			payload []byte
		}
		var inflight []pushed
		red := Red{}
		var respInflight []uint32 // lengths of outstanding read reservations
		for step := 0; step < 200; step++ {
			switch rng.Intn(3) {
			case 0: // push read
				length := uint32(rng.Intn(128) + 1)
				va, err := q.PushRead(uint64(rng.Uint32()), length, uint16(rng.Intn(4)))
				if err == nil {
					respInflight = append(respInflight, length)
					slot := int((q.Green().MetaTail - 1) % uint64(l.MetaEntries))
					e := DecodeEntry(q.Bytes()[l.MetaOffset(slot):])
					if e.Type != OpRead || e.RespAddr != va || e.Length != length {
						return false
					}
					inflight = append(inflight, pushed{e: e})
				}
			case 1: // push write
				payload := make([]byte, rng.Intn(128)+1)
				rng.Read(payload)
				err := q.PushWrite(payload, uint64(rng.Uint32()), uint16(rng.Intn(4)))
				if err == nil {
					slot := int((q.Green().MetaTail - 1) % uint64(l.MetaEntries))
					e := DecodeEntry(q.Bytes()[l.MetaOffset(slot):])
					if e.Type != OpWrite || int(e.Length) != len(payload) {
						return false
					}
					// Payload must be intact in the ring right now.
					off := e.ReqAddr - q.Base()
					if !bytes.Equal(q.Bytes()[off:off+uint64(len(payload))], payload) {
						return false
					}
					inflight = append(inflight, pushed{e: e, payload: payload})
				}
			case 2: // engine consumes the oldest entry
				if len(inflight) == 0 {
					continue
				}
				p := inflight[0]
				inflight = inflight[1:]
				red.MetaHead++
				if p.e.Type == OpWrite {
					// Engine "fetches" the payload, then frees the space.
					off := p.e.ReqAddr - q.Base()
					if !bytes.Equal(q.Bytes()[off:off+uint64(len(p.payload))], p.payload) {
						return false // payload corrupted before fetch
					}
					_, red.ReqDataHead = ReserveRing(red.ReqDataHead, p.e.Length, l.ReqDataBytes)
					red.WriteProgress++
				} else {
					red.ReadProgress++
					// Client consumes + frees the response slot in order.
					q.FreeResponse(respInflight[0])
					respInflight = respInflight[1:]
				}
				EncodeRed(red, q.Bytes()[l.RedOffset():])
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzQueueSetRed drives a queue set with an arbitrary red block — the half
// the engine writes by RDMA, so the bytes the client must survive whatever
// they are — and a short sequence of PushRead, PushWrite, FreeResponse and
// Progress calls, with the red block written in between. Every call must
// succeed or fail with one of the package's errors, none may panic, and no
// successful push may reserve past its ring's capacity.
func FuzzQueueSetRed(f *testing.F) {
	zero := make([]byte, RedSize)
	f.Add(zero, []byte{0x08, 0x09, 0x0a, 0x02, 0x03})
	consumed := make([]byte, RedSize)
	EncodeRed(Red{MetaHead: 2, ReqDataHead: 64, ReadProgress: 1}, consumed)
	f.Add(consumed, []byte{0x10, 0x19, 0x04, 0x10, 0x02, 0x39, 0x04, 0x11})
	f.Add(bytes.Repeat([]byte{0xff}, RedSize), []byte{0x04, 0x08, 0x09, 0x02})
	f.Fuzz(func(t *testing.T, red, ops []byte) {
		l := Layout{MetaEntries: 4, ReqDataBytes: 256, RespDataBytes: 256}
		q, err := NewQueueSet(0x1000, l)
		if err != nil {
			t.Fatal(err)
		}
		red = append(red, make([]byte, RedSize)...)[:RedSize]
		if len(ops) > 64 {
			ops = ops[:64]
		}
		var reads []uint32 // lengths of pushed reads not yet freed, oldest first
		for _, op := range ops {
			// The low three bits pick the call, the rest a length of up to
			// 310 bytes: past both rings' 256.
			length := uint32(op>>3) * 10
			switch op & 7 {
			case 0, 5:
				respVA, err := q.PushRead(0, length, 0)
				if err != nil {
					checkErr(t, err)
					continue
				}
				lo := q.Base() + uint64(l.RespDataOffset())
				if respVA < lo || respVA+uint64(length) > lo+uint64(l.RespDataBytes) {
					t.Fatalf("read of %d bytes placed at %#x, outside the response ring [%#x, %#x)", length, respVA, lo, lo+uint64(l.RespDataBytes))
				}
				if g := q.Green(); g.RespDataTail-g.RespDataHead > uint64(l.RespDataBytes) {
					t.Fatalf("response ring reserved %d bytes of %d", g.RespDataTail-g.RespDataHead, l.RespDataBytes)
				}
				reads = append(reads, length)
			case 1, 6:
				if err := q.PushWrite(make([]byte, length), 0, 0); err != nil {
					checkErr(t, err)
					continue
				}
				g, r := q.Green(), q.Red()
				if g.ReqDataTail-r.ReqDataHead > uint64(l.ReqDataBytes) {
					t.Fatalf("request ring reserved %d bytes of %d", g.ReqDataTail-r.ReqDataHead, l.ReqDataBytes)
				}
				e := DecodeEntry(q.Bytes()[l.MetaOffset(int((g.MetaTail-1)%uint64(l.MetaEntries))):])
				lo := q.Base() + uint64(l.ReqDataOffset())
				if e.ReqAddr < lo || e.ReqAddr+uint64(length) > lo+uint64(l.ReqDataBytes) {
					t.Fatalf("write of %d bytes staged at %#x, outside the request ring", length, e.ReqAddr)
				}
			case 2:
				if len(reads) > 0 {
					q.FreeResponse(reads[0])
					reads = reads[1:]
				}
			case 3:
				q.Progress()
			case 4, 7:
				// The engine's RDMA write of the red block.
				q.Mutex().Lock()
				copy(q.Bytes()[l.RedOffset():], red)
				q.Mutex().Unlock()
			}
			if g, r := q.Green(), q.Red(); r.MetaHead <= g.MetaTail && g.MetaTail-r.MetaHead > uint64(l.MetaEntries) {
				t.Fatalf("metadata ring holds %d entries of %d", g.MetaTail-r.MetaHead, l.MetaEntries)
			}
		}
	})
}

// checkErr fails t unless err is one a push may return.
func checkErr(t *testing.T, err error) {
	t.Helper()
	for _, want := range []error{ErrRedCorrupt, ErrMetaFull, ErrReqDataFull, ErrRespDataFull, ErrTooLarge} {
		if errors.Is(err, want) {
			return
		}
	}
	t.Fatalf("unexpected error: %v", err)
}
