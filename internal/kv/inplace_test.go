package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cowbird/internal/ycsb"
)

// writeOnceDevice refuses any write over bytes an earlier write covered.
// That is the invariant the client cache (DESIGN.md §11) relies on when the
// store runs over a Cowbird device: a device address never changes after its
// first write, so nothing cached from it goes stale. Once it knows its
// store's log, it also refuses a write above the read-only offset, where an
// in-place update could still change the bytes after they were written.
type writeOnceDevice struct {
	Device
	t       *testing.T // if set, a refused write also fails the test
	log     atomic.Pointer[hybridLog]
	mu      sync.Mutex
	written [][2]uint64 // [off, end) of every write so far
}

var errRewrite = errors.New("write over already-written device bytes")

func newWriteOnceDevice(t *testing.T, dev Device) *writeOnceDevice {
	return &writeOnceDevice{Device: dev, t: t}
}

func (d *writeOnceDevice) Session(threadID int) DeviceSession {
	return &writeOnceSession{DeviceSession: d.Device.Session(threadID), d: d}
}

type writeOnceSession struct {
	DeviceSession
	d *writeOnceDevice
}

func (s *writeOnceSession) WriteAsync(off uint64, src []byte) (Token, error) {
	end := off + uint64(len(src))
	if l := s.d.log.Load(); l != nil && end > l.readOnly.Load() {
		return 0, s.d.refuse(fmt.Errorf("device write [%#x, %#x) above the read-only offset %#x", off, end, l.readOnly.Load()))
	}
	s.d.mu.Lock()
	for _, w := range s.d.written {
		if off < w[1] && w[0] < end {
			s.d.mu.Unlock()
			return 0, s.d.refuse(fmt.Errorf("device write [%#x, %#x) overlaps the earlier write [%#x, %#x): %w", off, end, w[0], w[1], errRewrite))
		}
	}
	s.d.written = append(s.d.written, [2]uint64{off, end})
	s.d.mu.Unlock()
	return s.DeviceSession.WriteAsync(off, src)
}

func (d *writeOnceDevice) refuse(err error) error {
	if d.t != nil {
		d.t.Error(err)
	}
	return err
}

func TestWriteOnceDeviceRefusesRewrite(t *testing.T) {
	s := newWriteOnceDevice(nil, NewLocalDevice(1<<12)).Session(0)
	for _, w := range []struct {
		off, n uint64
		ok     bool
	}{
		{0, 100, true},
		{100, 100, true},
		{150, 10, false},
		{50, 100, false},
		{199, 1, false},
		{200, 56, true},
	} {
		if _, err := s.WriteAsync(w.off, make([]byte, w.n)); (err == nil) != w.ok {
			t.Errorf("write [%d, %d): err = %v, want accepted = %v", w.off, w.off+w.n, err, w.ok)
		}
	}
}

// TestInPlaceUpsertKeepsTail: updates of a key whose record is mutable
// rewrite it and append nothing; once the read-only offset passes the
// record, the next update appends a fresh, again mutable, copy.
func TestInPlaceUpsertKeepsTail(t *testing.T) {
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	key := []byte("hot")
	if err := s.Upsert(key, []byte("v-0000")); err != nil {
		t.Fatal(err)
	}
	tail, before := st.TailAddress(), st.Stats()
	for i := 1; i <= 1000; i++ {
		if err := s.Upsert(key, []byte(fmt.Sprintf("v-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.TailAddress(); got != tail {
		t.Fatalf("1000 updates of a mutable record moved the tail %#x -> %#x", tail, got)
	}
	after := st.Stats()
	if after.InPlaceUpdates-before.InPlaceUpdates != 1000 || after.Appends != before.Appends {
		t.Fatalf("stats %+v -> %+v, want 1000 more in place and no append", before, after)
	}
	if val, status := readSync(t, s, key); status != StatusOK || string(val) != "v-1000" {
		t.Fatalf("read %q/%v", val, status)
	}

	// Push the record below the read-only offset: the next update appends.
	addr := st.index[st.slotOf(key)].Load()
	for i := 0; st.log.readOnly.Load() <= addr; i++ {
		if err := s.Upsert([]byte(fmt.Sprintf("fill-%04d", i)), bytes.Repeat([]byte{1}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	tail, before = st.TailAddress(), st.Stats()
	if err := s.Upsert(key, []byte("v-1001")); err != nil {
		t.Fatal(err)
	}
	if after := st.Stats(); st.TailAddress() == tail || after.Appends != before.Appends+1 || after.InPlaceUpdates != before.InPlaceUpdates {
		t.Fatalf("update below the offset: tail %#x -> %#x, stats %+v -> %+v; want one append", tail, st.TailAddress(), before, after)
	}
	tail = st.TailAddress()
	if err := s.Upsert(key, []byte("v-1002")); err != nil {
		t.Fatal(err)
	}
	if st.TailAddress() != tail {
		t.Fatal("the appended copy is not updated in place")
	}
	if val, status := readSync(t, s, key); status != StatusOK || string(val) != "v-1002" {
		t.Fatalf("read %q/%v", val, status)
	}
}

// TestInPlaceDeleteAndResize: a Delete of a mutable record marks it in place;
// a value with no room in the record appends instead of overrunning it.
func TestInPlaceDeleteAndResize(t *testing.T) {
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	key := []byte("k")
	if err := s.Upsert(key, []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	tail := st.TailAddress()
	if err := s.Upsert(key, []byte("short")); err != nil { // fits the record
		t.Fatal(err)
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if st.TailAddress() != tail {
		t.Fatal("a shorter value or a delete of a mutable record appended")
	}
	if _, status := readSync(t, s, key); status != StatusNotFound {
		t.Fatalf("deleted key read as %v", status)
	}
	long := bytes.Repeat([]byte{'L'}, 40)
	if err := s.Upsert(key, long); err != nil {
		t.Fatal(err)
	}
	if st.TailAddress() == tail {
		t.Fatal("a value larger than the record was written in place")
	}
	if val, status := readSync(t, s, key); status != StatusOK || !bytes.Equal(val, long) {
		t.Fatalf("read %q/%v", val, status)
	}
}

// uniform reports whether val is n copies of one byte.
func uniform(val []byte, n int) bool {
	return len(val) == n && bytes.Count(val, val[:1]) == n
}

// TestTornReadsAcrossSessions races in-place writers against readers in
// other sessions. Every value is one repeated byte, so a copy that mixes two
// updates shows; filler appends keep moving the read-only offset across the
// hot records, so copies run on both sides of it.
func TestTornReadsAcrossSessions(t *testing.T) {
	st := openTest(t, smallConfig())
	const keys, size, rounds = 8, 64, 2000
	key := func(k int) []byte { return []byte(fmt.Sprintf("hot-%d", k)) }
	s0 := st.NewSession(100)
	for k := 0; k < keys; k++ {
		if err := s0.Upsert(key(k), bytes.Repeat([]byte{0}, size)); err != nil {
			t.Fatal(err)
		}
	}
	var writers, readers sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			s := st.NewSession(w)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				if err := s.Upsert(key(rng.Intn(keys)), bytes.Repeat([]byte{byte(i)}, size)); err != nil {
					t.Errorf("upsert: %v", err)
					return
				}
				if i%4 == 0 {
					if err := s.Upsert([]byte(fmt.Sprintf("fill-%d-%d", w, i)), make([]byte, size)); err != nil {
						t.Errorf("filler: %v", err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			s := st.NewSession(10 + r)
			rng := rand.New(rand.NewSource(int64(10 + r)))
			for !done.Load() {
				val, status := readSyncB(s, key(rng.Intn(keys)))
				if status != StatusOK || !uniform(val, size) {
					t.Errorf("read %x/%v: torn or lost", val, status)
					return
				}
			}
		}(r)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	if st.Stats().InPlaceUpdates == 0 {
		t.Fatal("no update was in place; the test is vacuous")
	}
}

// TestRMWInPlaceRacesOnOneStripe: RMW increments of one key race in-place
// upserts of another key on the same lock stripe, appends that move the
// read-only offset, and readers. No increment is lost, and a reader never
// sees the counter go back.
func TestRMWInPlaceRacesOnOneStripe(t *testing.T) {
	cfg := smallConfig()
	cfg.IndexSize = 2 * maxStripes
	st := openTest(t, cfg)
	ctr := []byte("counter")
	var other []byte
	for i := 0; other == nil; i++ {
		k := []byte(fmt.Sprintf("other-%d", i))
		if a, b := st.slotOf(k), st.slotOf(ctr); a != b && st.stripe(a) == st.stripe(b) {
			other = k
		}
	}
	// update yields between the read and the publication it feeds, so
	// other sessions' writes land in that window.
	incr := func(old []byte) []byte {
		n := uint32(0)
		if len(old) == 4 {
			n = binary.LittleEndian.Uint32(old)
		}
		runtime.Gosched()
		return binary.LittleEndian.AppendUint32(nil, n+1)
	}
	const workers, perWorker = 3, 400
	var incrs, others sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < workers; w++ {
		incrs.Add(1)
		go func(w int) {
			defer incrs.Done()
			s := st.NewSession(w)
			for i := 0; i < perWorker; i++ {
				status, err := s.RMW(ctr, nil, incr)
				for deadline := time.Now().Add(10 * time.Second); err == nil && status == StatusPending; {
					// The fillers pushed the counter cold: the RMW finishes
					// through CompletePending, racing like the hot one.
					var res []ReadResult
					res, err = s.CompletePending(true)
					if len(res) > 0 {
						status = res[0].Status
					} else if time.Now().After(deadline) {
						err = errors.New("cold RMW never completed")
					}
				}
				if err != nil || status != StatusOK {
					t.Errorf("worker %d: %v %v", w, status, err)
					return
				}
			}
		}(w)
	}
	others.Add(2)
	go func() {
		defer others.Done()
		s := st.NewSession(10)
		for i := 0; !done.Load(); i++ {
			if err := s.Upsert(other, bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
				t.Errorf("upsert: %v", err)
				return
			}
			if i%8 == 0 && i < 100_000 { // at most 1.6 MB of fillers
				if err := s.Upsert([]byte(fmt.Sprintf("fill-%d", i)), make([]byte, 100)); err != nil {
					t.Errorf("filler: %v", err)
					return
				}
			}
		}
	}()
	go func() {
		defer others.Done()
		s := st.NewSession(11)
		last := uint32(0)
		for !done.Load() {
			if val, status := readSyncB(s, ctr); status == StatusOK {
				n := binary.LittleEndian.Uint32(val)
				if n < last {
					t.Errorf("counter went back: %d after %d", n, last)
					return
				}
				last = n
			}
			if val, status := readSyncB(s, other); status == StatusOK && !uniform(val, 16) {
				t.Errorf("torn read of the other key: %x", val)
				return
			}
		}
	}()
	incrs.Wait()
	done.Store(true)
	others.Wait()
	if t.Failed() {
		return
	}
	val, status := readSync(t, st.NewSession(99), ctr)
	if status != StatusOK || binary.LittleEndian.Uint32(val) != workers*perWorker {
		t.Fatalf("counter = %x (%v), want %d: lost updates", val, status, workers*perWorker)
	}
	if st.Stats().InPlaceUpdates == 0 {
		t.Fatal("no update was in place; the test is vacuous")
	}
}

// TestCheckpointAfterInPlaceUpdates: Checkpoint makes the mutable region
// read-only and flushes it, so the recovered store reads every in-place
// update and delete, and the write-once device sees no page twice.
func TestCheckpointAfterInPlaceUpdates(t *testing.T) {
	dev := newWriteOnceDevice(t, NewLocalDevice(1<<26))
	st, err := Open(dev, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev.log.Store(st.log)
	s := st.NewSession(0)
	const n = 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	val := func(i, v int) []byte { return []byte(fmt.Sprintf("value-%04d-v%d", i, v)) }
	for v := 0; v < 4; v++ {
		for i := 0; i < n; i++ {
			if err := s.Upsert(key(i), val(i, v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Delete(key(7)); err != nil {
		t.Fatal(err)
	}
	if st.Stats().InPlaceUpdates < 3*n {
		t.Fatalf("stats %+v: the updates were not in place; the test is vacuous", st.Stats())
	}
	var img bytes.Buffer
	if err := st.Checkpoint(&img); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Recover(dev, smallConfig(), bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	dev.log.Store(st2.log)
	s2 := st2.NewSession(0)
	for i := 0; i < n; i++ {
		got, status := readSync(t, s2, key(i))
		if i == 7 {
			if status != StatusNotFound {
				t.Fatalf("deleted key read as %v", status)
			}
			continue
		}
		if status != StatusOK || !bytes.Equal(got, val(i, 3)) {
			t.Fatalf("key %d after recovery: %q/%v", i, got, status)
		}
	}
	// A recovered record is cold, so its first update appends; the copy is
	// mutable again.
	for v := 4; v < 6; v++ {
		if err := s2.Upsert(key(1), val(1, v)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st2.Stats(); got.Appends != 1 || got.InPlaceUpdates != 1 {
		t.Fatalf("stats after recovery %+v, want one append and one in place", got)
	}
	if got, status := readSync(t, s2, key(1)); status != StatusOK || !bytes.Equal(got, val(1, 5)) {
		t.Fatalf("post-recovery update: %q/%v", got, status)
	}
}

// coldRMWStore returns a session on a store whose key "ctr" holds "v0" and
// is cold.
func coldRMWStore(t *testing.T) (*Store, *Session) {
	t.Helper()
	st := openTest(t, smallConfig())
	s := st.NewSession(0)
	if err := s.Upsert([]byte("ctr"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if err := s.Upsert([]byte(fmt.Sprintf("fill-%04d", i)), bytes.Repeat([]byte{1}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	return st, s
}

// completeRMW drives CompletePending until the RMW tagged ctx finishes.
func completeRMW(t *testing.T, s *Session, ctx any) ReadResult {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		res, err := s.CompletePending(true)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Ctx == ctx {
				return r
			}
		}
	}
	t.Fatal("cold RMW never completed")
	return ReadResult{}
}

// TestColdRMWReturnsWhatItPublished: the cold half of an RMW calls update
// once per publication attempt and its result holds the value the store
// holds — on the first attempt and after a lost race alike.
func TestColdRMWReturnsWhatItPublished(t *testing.T) {
	st, s := coldRMWStore(t)
	calls := 0
	count := func(old []byte) []byte {
		calls++
		return []byte(fmt.Sprintf("v%d", calls))
	}
	if status, err := s.RMW([]byte("ctr"), "first", count); err != nil || status != StatusPending {
		t.Fatalf("cold RMW: %v %v", status, err)
	}
	res := completeRMW(t, s, "first")
	stored, status := readSync(t, s, []byte("ctr"))
	if calls != 1 || res.Status != StatusOK || status != StatusOK || string(res.Value) != string(stored) {
		t.Fatalf("update called %d times; result %q/%v, store %q/%v", calls, res.Value, res.Status, stored, status)
	}

	// Lose the race: another session updates the key between the cold read
	// and the publication, so the RMW runs again on the new value.
	for i := 0; i < 1500; i++ {
		if err := s.Upsert([]byte(fmt.Sprintf("more-%04d", i)), bytes.Repeat([]byte{2}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	calls = 0
	if status, err := s.RMW([]byte("ctr"), "second", count); err != nil || status != StatusPending {
		t.Fatalf("cold RMW: %v %v", status, err)
	}
	if err := st.NewSession(1).Upsert([]byte("ctr"), []byte("racer")); err != nil {
		t.Fatal(err)
	}
	res = completeRMW(t, s, "second")
	stored, status = readSync(t, s, []byte("ctr"))
	if calls != 2 || res.Status != StatusOK || status != StatusOK || string(res.Value) != string(stored) || string(stored) != "v2" {
		t.Fatalf("after a lost race: update called %d times; result %q/%v, store %q/%v", calls, res.Value, res.Status, stored, status)
	}
}

// TestYCSBBUpdatesMostlyInPlace replays kv_ycsb_b's shape — 200 k records
// of 8 B keys and 64 B values, the benchmark's kv.Config, YCSB-B over
// scrambled Zipf 0.99 — over a LocalDevice, and checks every read against a
// shadow of the versions written. At least half of the updates must be in
// place: the hot keys are updated again while their records are mutable.
func TestYCSBBReplayUpdatesMutableRecords(t *testing.T) {
	const records, valueSize, ops = 200_000, 64, 200_000
	st := openTest(t, Config{
		IndexSize:    1 << 18,
		MemSize:      1 << 20,
		PageSize:     1 << 16,
		DiskReadSize: recordHeader + 8 + valueSize,
		MaxInflight:  32,
	})
	s := st.NewSession(0)
	gen, err := ycsb.NewGenerator(ycsb.WorkloadB(records, valueSize, ycsb.ScrambledZipfian), 1)
	if err != nil {
		t.Fatal(err)
	}
	versions := make([]uint32, records)
	value := func(i int64) []byte {
		v := gen.Value(i, nil)
		binary.LittleEndian.PutUint32(v, versions[i])
		return v
	}
	for i := int64(0); i < records; i++ {
		if err := s.Upsert(gen.Key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := st.Stats()
	updates := 0
	for n := 0; n < ops; n++ {
		i := gen.NextIndex()
		if gen.NextOp() == ycsb.OpUpdate {
			versions[i]++
			if err := s.Upsert(gen.Key(i), value(i)); err != nil {
				t.Fatal(err)
			}
			updates++
			continue
		}
		if got, status := readSync(t, s, gen.Key(i)); status != StatusOK || !bytes.Equal(got, value(i)) {
			t.Fatalf("op %d: record %d read %x/%v, want version %d", n, i, got, status, versions[i])
		}
	}
	after := st.Stats()
	inPlace := after.InPlaceUpdates - before.InPlaceUpdates
	t.Logf("%d updates: %d in place, %d appended; %d pages flushed", updates, inPlace, after.Appends-before.Appends, after.PagesFlushed)
	if inPlace+(after.Appends-before.Appends) != uint64(updates) {
		t.Fatalf("stats %+v -> %+v do not account for %d updates", before, after, updates)
	}
	if 2*inPlace < uint64(updates) {
		t.Fatalf("%d of %d updates in place, want at least half", inPlace, updates)
	}
}
