package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func openTest(t *testing.T, cfg Config) *Store {
	t.Helper()
	dev := NewLocalDevice(1 << 26)
	st, err := Open(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func smallConfig() Config {
	return Config{
		IndexSize:    1 << 10,
		MemSize:      1 << 16, // 64 KiB memory
		PageSize:     1 << 12, // 4 KiB pages
		DiskReadSize: 256,
		MaxInflight:  128,
	}
}

// readSync resolves a read fully, driving pending I/O as needed.
func readSync(t *testing.T, s *Session, key []byte) ([]byte, Status) {
	t.Helper()
	val, status, err := s.Read(key, nil)
	if err != nil {
		t.Fatalf("Read(%q): %v", key, err)
	}
	if status != StatusPending {
		return val, status
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := s.CompletePending(true)
		if err != nil {
			t.Fatalf("CompletePending: %v", err)
		}
		for _, r := range res {
			if bytes.Equal(r.Key, key) {
				return r.Value, r.Status
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("cold read of %q never completed", key)
		}
	}
}

func TestUpsertReadInMemory(t *testing.T) {
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	if err := s.Upsert([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	val, status := readSync(t, s, []byte("alpha"))
	if status != StatusOK || string(val) != "one" {
		t.Fatalf("got %q/%v", val, status)
	}
}

func TestReadMissing(t *testing.T) {
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	if err := s.Upsert([]byte("exists"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, status := readSync(t, s, []byte("missing"))
	if status != StatusNotFound {
		t.Fatalf("status = %v, want NOT_FOUND", status)
	}
}

func TestUpdateReturnsLatest(t *testing.T) {
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	for i := 0; i < 10; i++ {
		if err := s.Upsert([]byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	val, status := readSync(t, s, []byte("k"))
	if status != StatusOK || string(val) != "v9" {
		t.Fatalf("got %q/%v", val, status)
	}
}

func TestHashCollisionChains(t *testing.T) {
	cfg := smallConfig()
	cfg.IndexSize = 1 // every key shares one chain
	st := openTest(t, cfg)
	s := st.NewSession(0)
	for i := 0; i < 50; i++ {
		if err := s.Upsert([]byte(fmt.Sprintf("key-%02d", i)), []byte(fmt.Sprintf("val-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		val, status := readSync(t, s, []byte(fmt.Sprintf("key-%02d", i)))
		if status != StatusOK || string(val) != fmt.Sprintf("val-%02d", i) {
			t.Fatalf("key %d: got %q/%v", i, val, status)
		}
	}
}

// coldStore opens a store with far more written than MemSize, so its first
// keys have spilled to the device while its last ones are still in memory,
// and returns a session on it with one key of each kind ("record-0000" and
// "record-1999" are what their values start with).
func coldStore(t *testing.T) (s *Session, hot, cold []byte) {
	t.Helper()
	st := openTest(t, smallConfig())
	s = st.NewSession(0)
	const n = 2000
	val := bytes.Repeat([]byte{0xEE}, 100)
	for i := 0; i < n; i++ {
		copy(val, fmt.Sprintf("record-%04d", i))
		if err := s.Upsert([]byte(fmt.Sprintf("key-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if st.HeadAddress() == st.log.begin() {
		t.Fatal("log never spilled; test is vacuous")
	}
	return s, []byte(fmt.Sprintf("key-%04d", n-1)), []byte("key-0000")
}

func TestSpillToDeviceAndColdRead(t *testing.T) {
	s, hot, cold := coldStore(t)
	_, status, err := s.Read(cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusPending {
		t.Fatalf("expected PENDING for cold key, got %v", status)
	}
	got, st2 := readSync(t, s, cold)
	if st2 != StatusOK || string(got[:11]) != "record-0000" {
		t.Fatalf("cold read: %q/%v", got[:16], st2)
	}
	// A recent key is still hot.
	got, st3 := readSync(t, s, hot)
	if st3 != StatusOK || string(got[:11]) != "record-1999" {
		t.Fatalf("hot read: %q/%v", got[:16], st3)
	}
}

func TestColdReadNotFound(t *testing.T) {
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	// Force all keys through one chain so a cold miss walks the chain to
	// its end on the device.
	for i := 0; i < 1500; i++ {
		if err := s.Upsert([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte{1}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	_, status := readSync(t, s, []byte("never-written"))
	if status != StatusNotFound {
		t.Fatalf("status = %v", status)
	}
}

func TestLargeValuesCrossSpeculativeRead(t *testing.T) {
	cfg := smallConfig()
	cfg.DiskReadSize = 64 // smaller than the records
	st := openTest(t, cfg)
	s := st.NewSession(0)
	big := bytes.Repeat([]byte{0xAB}, 700)
	const n = 400
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("big-%03d", i))
		v := append([]byte(fmt.Sprintf("%03d:", i)), big...)
		if err := s.Upsert(key, v); err != nil {
			t.Fatal(err)
		}
	}
	got, status := readSync(t, s, []byte("big-000"))
	if status != StatusOK || string(got[:4]) != "000:" || len(got) != 704 {
		t.Fatalf("large cold read: %v len=%d", status, len(got))
	}
}

func TestValueLargerThanHalfPageRejectedGracefully(t *testing.T) {
	cfg := smallConfig()
	st := openTest(t, cfg)
	s := st.NewSession(0)
	too := make([]byte, int(cfg.PageSize)+1)
	if err := s.Upsert([]byte("k"), too); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestConcurrentSessions(t *testing.T) {
	cfg := smallConfig()
	cfg.MemSize = 1 << 18
	cfg.IndexSize = 1 << 12
	st := openTest(t, cfg)
	const threads = 4
	const perThread = 800
	var wg sync.WaitGroup
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			s := st.NewSession(ti)
			rng := rand.New(rand.NewSource(int64(ti)))
			val := make([]byte, 120)
			for i := 0; i < perThread; i++ {
				key := []byte(fmt.Sprintf("t%d-k%04d", ti, i))
				rng.Read(val)
				copy(val, key)
				if err := s.Upsert(key, val); err != nil {
					t.Errorf("upsert: %v", err)
					return
				}
				// Read back a random earlier key of ours.
				j := rng.Intn(i + 1)
				want := fmt.Sprintf("t%d-k%04d", ti, j)
				got, status := readSyncB(s, []byte(want))
				if status != StatusOK {
					t.Errorf("thread %d: read %s -> %v", ti, want, status)
					return
				}
				if string(got[:len(want)]) != want {
					t.Errorf("thread %d: wrong record for %s", ti, want)
					return
				}
			}
		}(ti)
	}
	wg.Wait()
}

// readSyncB is readSync without *testing.T (for use inside goroutines).
func readSyncB(s *Session, key []byte) ([]byte, Status) {
	val, status, err := s.Read(key, nil)
	if err != nil {
		return nil, StatusNotFound
	}
	if status != StatusPending {
		return val, status
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		res, err := s.CompletePending(true)
		if err != nil {
			return nil, StatusNotFound
		}
		for _, r := range res {
			if bytes.Equal(r.Key, key) {
				return r.Value, r.Status
			}
		}
	}
	return nil, StatusNotFound
}

func TestPendingContextRoundTrip(t *testing.T) {
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	for i := 0; i < 1500; i++ {
		if err := s.Upsert([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte{9}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	_, status, err := s.Read([]byte("key-0001"), "my-context")
	if err != nil || status != StatusPending {
		t.Fatalf("%v %v", status, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := s.CompletePending(true)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) > 0 {
			if res[0].Ctx != "my-context" {
				t.Fatalf("ctx = %v", res[0].Ctx)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pending read never completed")
		}
	}
}

func TestMaxInflightEnforced(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxInflight = 2
	st := openTest(t, cfg)
	s := st.NewSession(0)
	for i := 0; i < 1500; i++ {
		if err := s.Upsert([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte{9}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	issued := 0
	for i := 0; i < 10; i++ {
		_, status, err := s.Read([]byte(fmt.Sprintf("key-%04d", i)), nil)
		if status != StatusPending {
			continue
		}
		if err != nil {
			if issued < 2 {
				t.Fatalf("rejected below the cap: %v", err)
			}
			return // correctly rejected at the cap
		}
		issued++
	}
	t.Fatal("inflight cap never enforced")
}

func TestRecordSizeAlignment(t *testing.T) {
	for _, c := range []struct{ k, v, want int }{
		{0, 0, 16},
		{1, 0, 24},
		{8, 8, 32},
		{5, 3, 24},
	} {
		if got := recordSize(c.k, c.v); got != uint64(c.want) {
			t.Errorf("recordSize(%d,%d) = %d, want %d", c.k, c.v, got, c.want)
		}
	}
}

func TestParseRecordTruncated(t *testing.T) {
	if _, _, _, _, ok := parseRecord(nil); ok {
		t.Fatal("nil parsed")
	}
	if _, _, _, _, ok := parseRecord(make([]byte, 10)); ok {
		t.Fatal("short header parsed")
	}
}

func TestDeleteHotRecord(t *testing.T) {
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	if err := s.Upsert([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, status := readSync(t, s, []byte("k")); status != StatusNotFound {
		t.Fatalf("deleted key read as %v", status)
	}
	// Re-upsert resurrects the key.
	if err := s.Upsert([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	val, status := readSync(t, s, []byte("k"))
	if status != StatusOK || string(val) != "v2" {
		t.Fatalf("resurrected read: %q/%v", val, status)
	}
}

func TestDeleteColdRecord(t *testing.T) {
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	for i := 0; i < 1500; i++ {
		if err := s.Upsert([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte{7}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete an early (cold) key; the tombstone itself starts hot.
	if err := s.Delete([]byte("key-0000")); err != nil {
		t.Fatal(err)
	}
	if _, status := readSync(t, s, []byte("key-0000")); status != StatusNotFound {
		t.Fatalf("deleted cold key read as %v", status)
	}
	// Push the tombstone itself into the cold region and re-check: the
	// NotFound must now come from a cold read of the tombstone.
	for i := 0; i < 1500; i++ {
		if err := s.Upsert([]byte(fmt.Sprintf("more-%04d", i)), bytes.Repeat([]byte{8}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if _, status := readSync(t, s, []byte("key-0000")); status != StatusNotFound {
		t.Fatalf("cold tombstone read as %v", status)
	}
	// Neighbors survive.
	if _, status := readSync(t, s, []byte("key-0001")); status != StatusOK {
		t.Fatalf("neighbor lost: %v", status)
	}
}

func TestLocalDeviceBounds(t *testing.T) {
	d := NewLocalDevice(100)
	s := d.Session(0)
	if _, err := s.ReadAsync(90, make([]byte, 20)); err == nil {
		t.Fatal("out of bounds read accepted")
	}
	if _, err := s.WriteAsync(90, make([]byte, 20)); err == nil {
		t.Fatal("out of bounds write accepted")
	}
	tok, err := s.WriteAsync(0, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	done := s.Poll(10, 0)
	if len(done) != 1 || done[0] != tok {
		t.Fatalf("poll = %v", done)
	}
}

func TestOpenValidation(t *testing.T) {
	dev := NewLocalDevice(1 << 20)
	if _, err := Open(dev, Config{IndexSize: 0}); err == nil {
		t.Fatal("zero index accepted")
	}
	if _, err := Open(dev, Config{IndexSize: 8, MemSize: 100, PageSize: 64}); err == nil {
		t.Fatal("non-multiple memory size accepted")
	}
}

func BenchmarkUpsertInMemory(b *testing.B) {
	dev := NewLocalDevice(1 << 30)
	st, err := Open(dev, Config{IndexSize: 1 << 20, MemSize: 1 << 28, PageSize: 1 << 20, DiskReadSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s := st.NewSession(0)
	key := make([]byte, 8)
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0], key[1], key[2], key[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		if err := s.Upsert(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadHot(b *testing.B) {
	dev := NewLocalDevice(1 << 30)
	st, _ := Open(dev, Config{IndexSize: 1 << 16, MemSize: 1 << 26, PageSize: 1 << 20, DiskReadSize: 256})
	defer st.Close()
	s := st.NewSession(0)
	key := make([]byte, 8)
	val := make([]byte, 64)
	const n = 10000
	for i := 0; i < n; i++ {
		key[0], key[1] = byte(i), byte(i>>8)
		if err := s.Upsert(key, val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0], key[1] = byte(i%n), byte((i%n)>>8)
		if _, status, err := s.Read(key, nil); err != nil || status != StatusOK {
			b.Fatalf("%v %v", status, err)
		}
	}
}

func TestRMWHotPath(t *testing.T) {
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	incr := func(old []byte) []byte {
		n := uint64(0)
		if len(old) == 8 {
			n = uint64(old[0]) | uint64(old[1])<<8
		}
		n++
		out := make([]byte, 8)
		out[0], out[1] = byte(n), byte(n>>8)
		return out
	}
	for i := 0; i < 10; i++ {
		status, err := s.RMW([]byte("ctr"), nil, incr)
		if err != nil || status != StatusOK {
			t.Fatalf("rmw %d: %v %v", i, status, err)
		}
	}
	val, status := readSync(t, s, []byte("ctr"))
	if status != StatusOK || val[0] != 10 {
		t.Fatalf("counter = %v (%v)", val, status)
	}
}

func TestRMWColdPath(t *testing.T) {
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	if err := s.Upsert([]byte("cold-ctr"), []byte{5}); err != nil {
		t.Fatal(err)
	}
	// Push it cold.
	for i := 0; i < 1500; i++ {
		if err := s.Upsert([]byte(fmt.Sprintf("fill-%04d", i)), bytes.Repeat([]byte{1}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	double := func(old []byte) []byte {
		if len(old) == 0 {
			return []byte{1}
		}
		return []byte{old[0] * 2}
	}
	status, err := s.RMW([]byte("cold-ctr"), "tag", double)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusPending {
		t.Fatalf("cold RMW returned %v, want PENDING", status)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := s.CompletePending(true)
		if err != nil {
			t.Fatal(err)
		}
		done := false
		for _, r := range res {
			if r.Ctx == "tag" {
				if r.Status != StatusOK {
					t.Fatalf("cold RMW result: %v", r.Status)
				}
				done = true
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cold RMW never completed")
		}
	}
	val, status := readSync(t, s, []byte("cold-ctr"))
	if status != StatusOK || val[0] != 10 {
		t.Fatalf("after cold RMW: %v (%v)", val, status)
	}
}

func TestRMWOnMissingKeyCreates(t *testing.T) {
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	status, err := s.RMW([]byte("fresh"), nil, func(old []byte) []byte {
		if old != nil {
			t.Error("old value for missing key")
		}
		return []byte("created")
	})
	if err != nil || status != StatusOK {
		t.Fatalf("%v %v", status, err)
	}
	val, status := readSync(t, s, []byte("fresh"))
	if status != StatusOK || string(val) != "created" {
		t.Fatalf("%q (%v)", val, status)
	}
}

func TestRMWConcurrentCounters(t *testing.T) {
	cfg := smallConfig()
	cfg.MemSize = 1 << 18
	st := openTest(t, cfg)
	const workers = 4
	const perWorker = 200
	incr := func(old []byte) []byte {
		n := uint32(0)
		if len(old) == 4 {
			n = uint32(old[0]) | uint32(old[1])<<8 | uint32(old[2])<<16
		}
		n++
		return []byte{byte(n), byte(n >> 8), byte(n >> 16), 0}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := st.NewSession(w)
			for i := 0; i < perWorker; i++ {
				status, err := s.RMW([]byte("shared"), nil, incr)
				if err != nil || status != StatusOK {
					t.Errorf("worker %d: %v %v", w, status, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s := st.NewSession(99)
	val, status := readSync(t, s, []byte("shared"))
	if status != StatusOK {
		t.Fatal(status)
	}
	got := uint32(val[0]) | uint32(val[1])<<8 | uint32(val[2])<<16
	if got != workers*perWorker {
		t.Fatalf("counter = %d, want %d (lost updates)", got, workers*perWorker)
	}
}

// TestReadPathAllocFree gates the read path at zero allocations: a hit
// answers from the session's scratch, and a cold read runs issue →
// CompletePending on a recycled pendingRead, its buffers and the reused
// result and token slices. The first rounds size them.
func TestReadPathAllocFree(t *testing.T) {
	s, hot, cold := coldStore(t)
	hit := func() {
		if val, status, err := s.Read(hot, nil); err != nil || status != StatusOK || string(val[:11]) != "record-1999" {
			t.Fatalf("hot read: %q %v %v", val, status, err)
		}
	}
	miss := func() {
		if _, status, err := s.Read(cold, nil); err != nil || status != StatusPending {
			t.Fatalf("cold read: %v %v", status, err)
		}
		res, err := s.CompletePending(true)
		if err != nil || len(res) != 1 || res[0].Status != StatusOK || string(res[0].Value[:11]) != "record-0000" {
			t.Fatalf("cold read completed as %+v, %v", res, err)
		}
	}
	for name, op := range map[string]func(){"hot": hit, "cold": miss} {
		for i := 0; i < 64; i++ {
			op()
		}
		if allocs := testing.AllocsPerRun(500, op); allocs != 0 {
			t.Errorf("%s read allocates %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestReadValueValidUntilNextRead pins the FASTER-style contract the
// allocation-free read path rests on: the slice Read returns is the session's
// scratch, and the next Read overwrites it.
func TestReadValueValidUntilNextRead(t *testing.T) {
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	for _, kv := range [][2]string{{"a", "first"}, {"b", "other"}} {
		if err := s.Upsert([]byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	first, _, _ := s.Read([]byte("a"), nil)
	if string(first) != "first" {
		t.Fatalf("read %q", first)
	}
	if second, _, _ := s.Read([]byte("b"), nil); string(second) != "other" {
		t.Fatalf("read %q", second)
	}
	if string(first) == "first" {
		t.Fatal("a second Read left the first one's slice alone: Read copies again, or the contract comment is stale")
	}
}
