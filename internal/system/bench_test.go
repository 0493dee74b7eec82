package system

import (
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/driver"
)

// Functional throughput benchmarks: real protocol, real goroutines, real
// serialized frames. These measure the Go implementation (useful for
// regression tracking), NOT the paper's numbers — those come from
// internal/perfsim, because wall-clock Go includes scheduler and GC noise
// the paper's C++/Tofino testbed doesn't have.

func benchSystem(b *testing.B, kind EngineKind, size int, write bool) {
	cfg := DefaultConfig()
	cfg.Engine = kind
	cfg.Spot.ProbeInterval = 2 * time.Microsecond
	cfg.P4.ProbeInterval = 2 * time.Microsecond
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	th, _ := s.Client.Thread(0)
	buf := make([]byte, size)
	l := &driver.Loop{
		Thread: th, Who: "benchmark", Window: 32, Ops: b.N, DestBytes: size,
		Issue: func(i int, dest []byte) (core.ReqID, error) {
			off := uint64(i%1024) * uint64(size)
			if write {
				return th.AsyncWrite(0, buf, off)
			}
			return th.AsyncRead(0, off, dest)
		},
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	if err := l.Run(nil); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSpotRead256(b *testing.B)  { benchSystem(b, EngineSpot, 256, false) }
func BenchmarkSpotWrite256(b *testing.B) { benchSystem(b, EngineSpot, 256, true) }
func BenchmarkP4Read256(b *testing.B)    { benchSystem(b, EngineP4, 256, false) }
func BenchmarkP4Write256(b *testing.B)   { benchSystem(b, EngineP4, 256, true) }
