//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package rdma

import (
	"slices"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"cowbird/internal/wire"
)

// lineEvent is one frame's arrival at a lineDevice: where, which frame, and
// when on the bubble clock.
type lineEvent struct {
	dev int
	tag byte
	at  time.Duration
}

// lineDevice logs every frame it receives into a log shared by all devices,
// and, if answer is set, calls it with each frame's tag from inside Input.
type lineDevice struct {
	id     int
	log    *lineLog
	answer func(tag byte)
}

type lineLog struct {
	mu     sync.Mutex
	start  time.Time
	events []lineEvent
}

func (d *lineDevice) MAC() wire.MAC { return lineMAC(d.id) }

func (d *lineDevice) Input(frame []byte) {
	d.log.mu.Lock()
	d.log.events = append(d.log.events, lineEvent{d.id, frame[14], time.Since(d.log.start)})
	d.log.mu.Unlock()
	if d.answer != nil {
		d.answer(frame[14])
	}
}

func lineMAC(id int) wire.MAC { return wire.MAC{2, 0, 0, 0, 3, byte(id)} }

// lineFrame is a non-RoCE frame for device dst carrying tag.
func lineFrame(dst int, tag byte) []byte {
	mac := lineMAC(dst)
	fr := make([]byte, wire.EthernetLen+1)
	copy(fr, mac[:])
	fr[12], fr[13] = 0x88, 0xB6 // local experimental EtherType
	fr[14] = tag
	return fr
}

// TestDelayLineOrderOnBubbleClock: on the bubble clock, frames that three
// senders forward at one virtual instant fall due together and are
// delivered in forwarding order, every run alike. The latency is lowered to
// zero before they are due: a frame sent then waits behind them instead of
// going inline, and so does the answer a handler sends from the line's
// goroutine, which is delivered at the same instant, last.
func TestDelayLineOrderOnBubbleClock(t *testing.T) {
	const latency = 10 * time.Microsecond
	const senders, perSender = 3, 4
	const late, answer = 0xE0, 0xF0
	var want []lineEvent
	for s := 0; s < senders; s++ {
		for k := 0; k < perSender; k++ {
			want = append(want, lineEvent{(s + k) % 3, byte(s<<4 | k), latency})
		}
	}
	want = append(want, lineEvent{0, late, latency}, lineEvent{2, answer, latency})

	type result struct {
		events []lineEvent
		inline int64
	}
	for run := 0; run < 3; run++ {
		// The result leaves the bubble on a channel made outside it: the race
		// detector sees no edge from the bubble's end to Run's return.
		out := make(chan result, 1)
		synctest.Run(func() {
			f := NewFabric()
			defer f.Close()
			log := &lineLog{start: time.Now()}
			for id := 0; id < 3; id++ {
				d := &lineDevice{id: id, log: log}
				if id == 0 {
					d.answer = func(tag byte) {
						if tag == 0x00 { // sender 0's first frame
							f.Send(lineFrame(2, answer))
						}
					}
				}
				f.Attach(d)
			}
			f.SetLatency(latency)
			for s := 0; s < senders; s++ {
				go func() {
					for k := 0; k < perSender; k++ {
						f.Send(lineFrame((s+k)%3, byte(s<<4|k)))
					}
				}()
				synctest.Wait() // sender s is done before s+1 starts
			}
			f.SetLatency(0)
			f.Send(lineFrame(0, late))
			time.Sleep(2 * latency)
			synctest.Wait()
			log.mu.Lock()
			defer log.mu.Unlock()
			out <- result{slices.Clone(log.events), f.Stats().Inline}
		})
		res := <-out
		if !slices.Equal(res.events, want) {
			t.Fatalf("run %d delivered\n%v\nwant\n%v", run, res.events, want)
		}
		if res.inline != 0 {
			t.Fatalf("run %d: %d frames went inline, want every frame on the line", run, res.inline)
		}
	}
}
