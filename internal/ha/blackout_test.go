//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package ha

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/synctest"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/driver"
	"cowbird/internal/engine/spot"
)

// The failover-blackout exhibit (EXPERIMENTS.md, "Failover blackout"): what a
// spot revocation costs the application, read off the live Monitor, Standby
// and spot adoption code rather than a model of them. Each run sits in a
// synctest bubble, so every timer, ticker, fabric latency and sleep of the
// deployment runs on the bubble's virtual clock and the figures are the
// protocol's own timing, free of host scheduling noise. Run it with
//
//	GOEXPERIMENT=synctest go test -run TestFailoverBlackout -v ./internal/ha/
//
// The closed loop is internal/driver's, whose package comment has the
// bubble's pitfalls; it sleeps on an empty poll and builds and closes the rig
// inside the bubble.

const (
	// blackoutLatency is the fabric's one-way propagation latency.
	blackoutLatency = 2 * time.Microsecond
	// blackoutPoll is the driver's sleep on an empty poll, and so the
	// resolution at which it reads the instant of death and each completion.
	blackoutPoll = time.Microsecond
	// blackoutDepth is the closed loop's outstanding requests.
	blackoutDepth = 8
	// blackoutSeeds is how many preemption points each heartbeat runs.
	blackoutSeeds = 100
	// blackoutMaxOps bounds a run's ops; it ends well before, two windows
	// after the takeover, or fails at blackoutBound.
	blackoutMaxOps = 1 << 20
	// blackoutBound is the virtual time a run may take.
	blackoutBound = time.Second
)

// blackoutRun is one preemption, read off the bubble clock.
type blackoutRun struct {
	detect   time.Duration // death → the monitor's death callback
	promote  time.Duration // Standby.Promote, its adoption reads included
	blackout time.Duration // death → the first completion after the takeover
	stranded int           // requests in flight at death, completed once after the takeover
}

type blackoutResult struct {
	run blackoutRun
	err error
}

// TestFailoverBlackout sweeps the engine heartbeat with lease = 4 ×
// heartbeat and monitor interval = heartbeat / 2. For each heartbeat it
// preempts a loaded spot primary at blackoutSeeds seeded posts, lets the
// monitor promote a pre-wired standby, and checks every run: each issued
// request completes exactly once, and detection lies in
// (lease − heartbeat, lease + 2 × interval] — the last heartbeat lands at
// most one heartbeat before death, and the monitor's samples add at most one
// interval before they see it and one more before they see its lease run
// out. The bounds are held over the seeds rather than by byte-identical
// rows on rerun: the goroutines that run at one virtual instant still run
// in the host scheduler's order, so which post is the seeded one, and what
// is in flight at death, may change between runs of one seed. The row per
// heartbeat gives the median run and the spread of detection.
func TestFailoverBlackout(t *testing.T) {
	t.Logf("%-9s %-7s %-9s %-30s %-9s %-10s %s", "heartbeat", "lease", "interval",
		"detection (min..max)", "promotion", "blackout", "stranded (total)")
	for _, hb := range []time.Duration{500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond} {
		lease, interval := 4*hb, hb/2
		var detect, promote, blackout []time.Duration
		var stranded []int
		for seed := int64(0); seed < blackoutSeeds; seed++ {
			// The result leaves the bubble on a channel made outside it: the
			// race detector sees no edge from the bubble's end to Run's return.
			out := make(chan blackoutResult, 1)
			synctest.Run(func() {
				run, err := runBlackout(hb, lease, interval, seed)
				out <- blackoutResult{run, err}
			})
			res := <-out
			if res.err != nil {
				t.Fatalf("heartbeat %v seed %d: %v", hb, seed, res.err)
			}
			run := res.run
			if run.detect <= lease-hb || run.detect > lease+2*interval {
				t.Errorf("heartbeat %v seed %d: detection %v outside (%v, %v]",
					hb, seed, run.detect, lease-hb, lease+2*interval)
			}
			if run.blackout < run.detect+run.promote {
				t.Errorf("heartbeat %v seed %d: blackout %v shorter than detection %v + promotion %v",
					hb, seed, run.blackout, run.detect, run.promote)
			}
			detect = append(detect, run.detect)
			promote = append(promote, run.promote)
			blackout = append(blackout, run.blackout)
			stranded = append(stranded, run.stranded)
		}
		total := 0
		for _, n := range stranded {
			total += n
		}
		if total == 0 {
			t.Errorf("heartbeat %v: no run had a request in flight at death", hb)
		}
		t.Logf("%-9v %-7v %-9v %-30s %-9v %-10v %d (%d)", hb, lease, interval,
			fmt.Sprintf("%v (%v..%v)", median(detect), slices.Min(detect), slices.Max(detect)),
			median(promote), median(blackout), median(stranded), total)
	}
}

// median returns the middle element of v, the upper one of an even count.
func median[T cmp.Ordered](v []T) T {
	s := slices.Clone(v)
	slices.Sort(s)
	return s[len(s)/2]
}

// runBlackout runs one preemption inside the calling bubble: a closed loop of
// blackoutDepth alternating writes and reads against the primary, which dies
// at a post chosen by seed; the monitor's death callback promotes the
// standby, and the loop goes on until the requests stranded at death and as
// many again have completed on it.
func runBlackout(hb, lease, interval time.Duration, seed int64) (blackoutRun, error) {
	ecfg := spot.DefaultConfig()
	ecfg.HeartbeatInterval = hb
	r, err := newRig(ecfg, MonitorConfig{Interval: interval, LeaseTimeout: lease}, false)
	if err != nil {
		return blackoutRun{}, err
	}
	defer r.close()
	r.f.SetLatency(blackoutLatency)

	type takeover struct {
		detected, promoted time.Time
		err                error
	}
	took := make(chan takeover, 1)
	r.monitor.OnDeath(func() {
		detected := time.Now()
		err := r.standby.Promote()
		select {
		case took <- takeover{detected, time.Now(), err}:
		default: // a second death: the driver reports the first takeover
		}
	})

	rng := rand.New(rand.NewSource(seed))
	r.primary.PreemptAfter(100 + rng.Int63n(400))
	r.primary.Run()
	r.monitor.Start()
	defer r.monitor.Stop()

	th, err := r.client.Thread(0)
	if err != nil {
		return blackoutRun{}, err
	}
	src := make([]byte, 64)
	var (
		death, firstAfter time.Time
		tk                *takeover
		afterTakeover     int
		stranded          int
		issuedAt          []time.Time // by op
	)
	// observe notes the instant of death and picks up the takeover; the loop
	// calls it after every wait and before every completion.
	var promoteErr error
	observe := func() {
		if death.IsZero() && r.primary.Preempted() {
			death = time.Now()
		}
		if tk == nil && promoteErr == nil {
			select {
			case v := <-took:
				if v.err != nil {
					promoteErr = fmt.Errorf("promote: %w", v.err)
				} else {
					tk = &v
				}
			default:
			}
		}
	}
	start := time.Now()
	l := &driver.Loop{
		Thread: th, Who: "blackout loop", Window: blackoutDepth, Ops: blackoutMaxOps, DestBytes: 64, Stall: blackoutBound,
		Issue: func(i int, dest []byte) (core.ReqID, error) {
			if promoteErr != nil || tk != nil && afterTakeover >= 2*blackoutDepth {
				return 0, driver.Stop
			}
			if time.Since(start) > blackoutBound {
				return 0, fmt.Errorf("not done after %v", blackoutBound)
			}
			issuedAt = append(issuedAt[:i], time.Now()) // a ring-full retry reissues op i
			addr := uint64(i%256) * 64
			if i%2 == 0 {
				return th.AsyncWrite(0, src, addr)
			}
			return th.AsyncRead(0, addr, dest)
		},
		Done: func(i int, _ []byte) error {
			observe()
			if promoteErr != nil {
				return promoteErr
			}
			if now := time.Now(); tk != nil && !now.Before(tk.promoted) {
				if firstAfter.IsZero() {
					firstAfter = now
				}
				afterTakeover++
				if issuedAt[i].Before(death) {
					stranded++
				}
			}
			return nil
		},
		Idle: func(int) {
			time.Sleep(blackoutPoll)
			observe()
		},
	}
	if err := l.Run(nil); err != nil {
		return blackoutRun{}, fmt.Errorf("%w (preempted=%v promoted=%v)", err, r.primary.Preempted(), r.standby.Promoted())
	}
	if promoteErr != nil {
		return blackoutRun{}, promoteErr
	}
	if death.IsZero() || tk == nil {
		return blackoutRun{}, fmt.Errorf("no takeover (preempted=%v)", r.primary.Preempted())
	}
	return blackoutRun{
		detect:   tk.detected.Sub(death),
		promote:  tk.promoted.Sub(tk.detected),
		blackout: firstAfter.Sub(death),
		stranded: stranded,
	}, nil
}
