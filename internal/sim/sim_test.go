package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("event %d fired out of order: %v...", i, got[:i+1])
		}
	}
}

func TestPastEventPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake []int64
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100)
		wake = append(wake, p.Now())
		p.Sleep(250)
		wake = append(wake, p.Now())
		p.Sleep(0)
		wake = append(wake, p.Now())
	})
	e.Run()
	if len(wake) != 3 || wake[0] != 100 || wake[1] != 350 || wake[2] != 350 {
		t.Fatalf("wake times = %v, want [100 350 350]", wake)
	}
	if e.Blocked() != 0 {
		t.Fatalf("Blocked() = %d after clean finish", e.Blocked())
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		e.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				trace = append(trace, "a")
			}
		})
		e.Go("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				trace = append(trace, "b")
			}
		})
		e.Run()
		return trace
	}
	first := run()
	for i := 0; i < 20; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("run %d diverged: %v vs %v", i, first, again)
			}
		}
	}
	// Spawn order breaks the tie at every shared timestamp.
	want := []string{"a", "b", "a", "b", "a", "b"}
	for j := range want {
		if first[j] != want[j] {
			t.Fatalf("trace = %v, want %v", first, want)
		}
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			q.Put(i)
		}
		q.Close()
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("got %d items, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v, want ascending", got)
		}
	}
}

func TestQueueMultipleGettersServedInBlockOrder(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var order []string
	spawn := func(name string) {
		e.Go(name, func(p *Proc) {
			if _, ok := q.Get(p); ok {
				order = append(order, name)
			}
		})
	}
	spawn("g1")
	spawn("g2")
	spawn("g3")
	e.GoAt(100, "producer", func(p *Proc) {
		q.Put(1)
		q.Put(2)
		q.Put(3)
	})
	e.Run()
	if len(order) != 3 || order[0] != "g1" || order[1] != "g2" || order[2] != "g3" {
		t.Fatalf("service order = %v, want [g1 g2 g3]", order)
	}
}

func TestQueueTryGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue returned ok")
	}
	q.Put("x")
	v, ok := q.TryGet()
	if !ok || v != "x" {
		t.Fatalf("TryGet = %q,%v", v, ok)
	}
}

func TestRunUntilAndShutdown(t *testing.T) {
	e := NewEngine()
	ticks := 0
	cleaned := false
	e.Go("daemon", func(p *Proc) {
		defer func() { cleaned = true }()
		for {
			p.Sleep(10)
			ticks++
		}
	})
	e.RunUntil(55)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if e.Blocked() != 1 {
		t.Fatalf("Blocked() = %d, want 1 daemon", e.Blocked())
	}
	e.Shutdown()
	if !cleaned {
		t.Fatal("daemon deferred cleanup did not run on Shutdown")
	}
	if e.Blocked() != 0 {
		t.Fatalf("Blocked() = %d after Shutdown", e.Blocked())
	}
}

func TestShutdownUnwindsUnstartedProc(t *testing.T) {
	e := NewEngine()
	started := false
	e.Go("hold", func(p *Proc) { p.Sleep(1000) })
	e.RunUntil(0) // start event for "late" below is beyond deadline
	e.GoAt(500, "late", func(p *Proc) { started = true })
	e.Shutdown()
	if started {
		t.Fatal("late proc body ran despite Shutdown")
	}
	if e.Blocked() != 0 {
		t.Fatalf("Blocked() = %d after Shutdown", e.Blocked())
	}
}

func TestGoAt(t *testing.T) {
	e := NewEngine()
	var at int64 = -1
	e.GoAt(77, "p", func(p *Proc) { at = p.Now() })
	e.Run()
	if at != 77 {
		t.Fatalf("proc started at %d, want 77", at)
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine()
	var childTime int64 = -1
	e.Go("parent", func(p *Proc) {
		p.Sleep(10)
		e.Go("child", func(c *Proc) {
			c.Sleep(5)
			childTime = c.Now()
		})
		p.Sleep(100)
	})
	e.Run()
	if childTime != 15 {
		t.Fatalf("child woke at %d, want 15", childTime)
	}
}

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine()
	var t int64
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			t += 10
			e.At(t, tick)
		}
	}
	e.At(0, tick)
	b.ResetTimer()
	e.Run()
}

func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine()
	e.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// Property: any randomly generated schedule of events fires in
// nondecreasing time order, with ties broken by schedule order.
func TestQuickEventOrderProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type fired struct {
			at  int64
			seq int
		}
		var log []fired
		n := rng.Intn(200) + 1
		for i := 0; i < n; i++ {
			at := int64(rng.Intn(50))
			i := i
			e.At(at, func() { log = append(log, fired{at: e.Now(), seq: i}) })
		}
		e.Run()
		if len(log) != n {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				return false
			}
			if log[i].at == log[i-1].at && log[i].seq < log[i-1].seq {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(fn, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: processes spawned with random sleep sequences always observe
// strictly consistent virtual time (monotone per process, shared clock).
func TestQuickProcClockMonotone(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ok := true
		for p := 0; p < 4; p++ {
			sleeps := make([]int64, rng.Intn(20)+1)
			for i := range sleeps {
				sleeps[i] = int64(rng.Intn(30))
			}
			e.Go("p", func(pr *Proc) {
				last := pr.Now()
				for _, d := range sleeps {
					pr.Sleep(d)
					if pr.Now() < last+d {
						ok = false
					}
					last = pr.Now()
				}
			})
		}
		e.Run()
		return ok
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(fn, cfg); err != nil {
		t.Fatal(err)
	}
}
