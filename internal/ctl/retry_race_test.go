package ctl

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"
)

// TestCallRetryConcurrent: many goroutines retrying at once against a
// closed port must each back off and give up at their own context's end.
// Under -race this covers the jitter draws, which every concurrent
// CallRetry takes from the shared math/rand/v2 generator.
func TestCallRetryConcurrent(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // closed port: dials fail fast, each attempt hits jitter

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			if _, err := CallRetry(ctx, addr, Request{Op: "noop"}); err == nil {
				t.Error("call to a closed port unexpectedly succeeded")
			}
		}()
	}
	wg.Wait()
}

// TestJitterRange pins the jitter contract: delays in [backoff/2, backoff].
func TestJitterRange(t *testing.T) {
	const backoff = 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		d := jitter(backoff)
		if d < backoff/2 || d > backoff {
			t.Fatalf("jitter %v outside [%v, %v]", d, backoff/2, backoff)
		}
	}
}
