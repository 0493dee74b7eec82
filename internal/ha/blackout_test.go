//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package ha

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/synctest"
	"time"

	"cowbird/internal/core"
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
// In a bubble, virtual time advances only when every goroutine is durably
// blocked, which shapes the driver below:
//   - it polls with WaitErr(n, 0) and sleeps on an empty poll. A WaitErr
//     with a timeout yields instead of blocking within pace.Slack of its
//     deadline, and a goroutine that only yields stops the clock for good;
//   - it sleeps on ErrEngineDead as on an empty poll, since WaitErr returns
//     that at once until the monitor's next sample;
//   - it builds the rig with newRig and closes it inside the bubble, because
//     t.Cleanup runs after the bubble has ended.

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
	g := th.PollCreate()
	src, dest := make([]byte, 64), make([]byte, 64)
	issuedAt := make(map[core.ReqID]time.Time)
	doneAt := make(map[core.ReqID]time.Time)
	var (
		death, firstAfter time.Time
		tk                *takeover
		afterTakeover     int
	)
	deadline := time.Now().Add(time.Second)
	for n := 0; ; {
		now := time.Now()
		if now.After(deadline) {
			return blackoutRun{}, fmt.Errorf("%d requests outstanding after %v (preempted=%v promoted=%v)",
				g.Len(), time.Second, r.primary.Preempted(), r.standby.Promoted())
		}
		if death.IsZero() && r.primary.Preempted() {
			death = now
		}
		if tk == nil {
			select {
			case v := <-took:
				if v.err != nil {
					return blackoutRun{}, fmt.Errorf("promote: %w", v.err)
				}
				tk = &v
			default:
			}
		}
		issuing := tk == nil || afterTakeover < 2*blackoutDepth
		for issuing && g.Len() < blackoutDepth {
			addr := uint64(n%256) * 64
			var id core.ReqID
			if n%2 == 0 {
				id, err = th.AsyncWrite(0, src, addr)
			} else {
				id, err = th.AsyncRead(0, addr, dest)
			}
			if err != nil {
				break // rings full: the engine is behind
			}
			if err := g.Add(id); err != nil {
				return blackoutRun{}, err
			}
			issuedAt[id] = now
			n++
		}
		ids, err := g.WaitErr(blackoutDepth, 0)
		if err != nil && !errors.Is(err, core.ErrEngineDead) {
			return blackoutRun{}, err
		}
		for _, id := range ids {
			if _, dup := doneAt[id]; dup {
				return blackoutRun{}, fmt.Errorf("request %v completed twice", id)
			}
			doneAt[id] = now
			if tk != nil && !now.Before(tk.promoted) {
				if firstAfter.IsZero() {
					firstAfter = now
				}
				afterTakeover++
			}
		}
		if len(ids) > 0 {
			continue
		}
		if !issuing && g.Len() == 0 {
			break
		}
		time.Sleep(blackoutPoll)
	}

	if death.IsZero() || tk == nil {
		return blackoutRun{}, fmt.Errorf("no takeover (preempted=%v)", r.primary.Preempted())
	}
	run := blackoutRun{
		detect:   tk.detected.Sub(death),
		promote:  tk.promoted.Sub(tk.detected),
		blackout: firstAfter.Sub(death),
	}
	for id, at := range issuedAt {
		done, ok := doneAt[id]
		if !ok {
			return blackoutRun{}, fmt.Errorf("request %v never completed", id)
		}
		if at.Before(death) && !done.Before(tk.promoted) {
			run.stranded++
		}
	}
	if len(doneAt) != len(issuedAt) {
		return blackoutRun{}, fmt.Errorf("%d completions for %d issued requests", len(doneAt), len(issuedAt))
	}
	return run, nil
}
