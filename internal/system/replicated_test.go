package system

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"cowbird/internal/core"
)

// TestPoolReplicasFailover runs the full stack with two pool replicas,
// kills the primary, and checks reads transparently fail over with correct
// data; killing the survivor too turns waits into ErrPoolDegraded
// advisories instead of silent spins.
func TestPoolReplicasFailover(t *testing.T) {
	s := startSystem(t, func(c *Config) {
		c.PoolReplicas = 2
		c.PoolRetransmitTimeout = 170 * time.Microsecond
		c.PoolMaxRetries = 2
		c.Spot.PoolHeartbeatInterval = 200 * time.Microsecond
	})
	if len(s.Pools) != 2 || s.Pool != s.Pools[0] {
		t.Fatalf("expected 2 pools with Pools[0] primary, got %d", len(s.Pools))
	}
	th, _ := s.Client.Thread(0)

	data := bytes.Repeat([]byte{0xC3}, 1024)
	if err := th.WriteSync(0, data, 16384, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The acked write is mirrored: present on both replicas.
	for r, p := range s.Pools {
		got, err := p.Peek(0, 16384, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("replica %d missing acked write", r)
		}
	}

	s.Pools[0].Crash()
	dest := make([]byte, len(data))
	if err := th.ReadSync(0, 16384, dest, 10*time.Second); err != nil {
		t.Fatalf("read after primary crash: %v", err)
	}
	if !bytes.Equal(dest, data) {
		t.Fatal("failover read returned wrong data")
	}
	if !s.Spot.PoolDegraded() {
		t.Fatal("engine should report the pool degraded")
	}
	if st := s.Spot.Stats(); st.PoolFailovers != 1 {
		t.Fatalf("PoolFailovers = %d, want 1", st.PoolFailovers)
	}

	// Lose the survivor as well: outstanding waits now surface the
	// degradation advisory instead of spinning silently.
	s.Pools[1].Crash()
	id, err := th.AsyncRead(0, 16384, dest)
	if err != nil {
		t.Fatal(err)
	}
	g := th.PollCreate()
	if err := g.Add(id); err != nil {
		t.Fatal(err)
	}
	if _, werr := g.WaitErr(1, 50*time.Millisecond); !errors.Is(werr, core.ErrPoolDegraded) {
		t.Fatalf("WaitErr = %v, want ErrPoolDegraded", werr)
	}
}

// TestP4RejectsPoolReplicas: replication is a Spot capability; the switch
// pipeline cannot mirror writes, so the config is rejected at Setup.
func TestP4RejectsPoolReplicas(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = EngineP4
	cfg.PoolReplicas = 2
	if _, err := New(cfg); err == nil {
		t.Fatal("EngineP4 with PoolReplicas=2 must be a config error")
	}
}
