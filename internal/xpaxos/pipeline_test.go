package xpaxos

import (
	"fmt"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/smr"
)

// loadClients drives several closed-loop clients concurrently,
// recording every key whose commit the client observed. Returns the
// recorder map (key -> true) and a stop function.
func loadClients(c *cluster, n int) (committed map[string]bool, stop func()) {
	committed = make(map[string]bool)
	stopped := false
	for ci := 0; ci < n; ci++ {
		ci := ci
		cl := c.clients[ci]
		i := 0
		key := func(i int) string { return fmt.Sprintf("load-%d-%d", ci, i) }
		cl.cfg.OnCommit = func(op, rep []byte, lat time.Duration) {
			committed[key(i)] = true
			i++
			if !stopped {
				cl.Invoke(kv.PutOp(key(i), []byte("v")))
			}
		}
		c.net.At(c.net.Now(), func() { cl.Invoke(kv.PutOp(key(0), []byte("v"))) })
	}
	return committed, func() { stopped = true }
}

// TestPipelineKeepsMultipleBatchesInFlight checks that the primary
// actually overlaps batches under concurrent load, and that everything
// still commits in total order.
func TestPipelineKeepsMultipleBatchesInFlight(t *testing.T) {
	const clients = 6
	c := newCluster(t, clusterOpts{t: 1, clients: clients, cfgMod: func(id smr.NodeID, cfg *Config) {
		cfg.BatchSize = 1 // one batch per request: depth == concurrency
		cfg.PipelineWindow = 8
	}})
	committed, stop := loadClients(c, clients)
	c.run(3 * time.Second)
	stop()
	c.run(time.Second)

	if len(committed) < 20 {
		t.Fatalf("too few commits under pipelined load: %d", len(committed))
	}
	if got := c.replicas[0].MaxInFlight(); got < 2 {
		t.Errorf("primary never pipelined: max in-flight = %d, want ≥ 2", got)
	}
	for key := range committed {
		for _, id := range []smr.NodeID{0, 1} {
			if _, ok := c.stores[id].Get(key); !ok {
				t.Errorf("replica %d missing committed key %s", id, key)
			}
		}
	}
	c.checkStoresConverge(0, 1)
	c.checkLemma1()
}

// TestPipelineWindowBoundsInFlight checks the window is a hard cap:
// with more concurrent demand than window slots, the primary must
// never exceed the configured depth.
func TestPipelineWindowBoundsInFlight(t *testing.T) {
	const clients, window = 8, 3
	c := newCluster(t, clusterOpts{t: 1, clients: clients, cfgMod: func(id smr.NodeID, cfg *Config) {
		cfg.BatchSize = 1
		cfg.PipelineWindow = window
	}})
	committed, stop := loadClients(c, clients)
	c.run(3 * time.Second)
	stop()
	c.run(time.Second)

	if len(committed) < 20 {
		t.Fatalf("too few commits: %d", len(committed))
	}
	got := c.replicas[0].MaxInFlight()
	if got > window {
		t.Errorf("window violated: max in-flight = %d > %d", got, window)
	}
	if got < 2 {
		t.Errorf("window never filled: max in-flight = %d", got)
	}
	c.checkLemma1()
}

// TestWindowOneIsLockStep checks that PipelineWindow=1, BatchSize=1
// degrades to the classic lock-step common case: at most one sequence
// number in flight, every request committed, state converged.
func TestWindowOneIsLockStep(t *testing.T) {
	const clients = 4
	c := newCluster(t, clusterOpts{t: 1, clients: clients, cfgMod: func(id smr.NodeID, cfg *Config) {
		cfg.BatchSize = 1
		cfg.PipelineWindow = 1
	}})
	committed, stop := loadClients(c, clients)
	c.run(3 * time.Second)
	stop()
	c.run(time.Second)

	if len(committed) < 10 {
		t.Fatalf("too few commits in lock-step mode: %d", len(committed))
	}
	if got := c.replicas[0].MaxInFlight(); got != 1 {
		t.Errorf("lock-step violated: max in-flight = %d, want exactly 1", got)
	}
	for key := range committed {
		if _, ok := c.stores[0].Get(key); !ok {
			t.Errorf("lock-step lost committed key %s", key)
		}
	}
	c.checkStoresConverge(0, 1)
	c.checkLemma1()
}

// TestViewChangeWithInFlightWindow is the core pipelining safety test:
// the primary crashes while the window holds several in-flight
// batches, and every request whose commit a client observed must
// survive into the new view.
func TestViewChangeWithInFlightWindow(t *testing.T) {
	const clients = 6
	c := newCluster(t, clusterOpts{t: 1, clients: clients, reqTimeout: 300 * time.Millisecond,
		cfgMod: func(id smr.NodeID, cfg *Config) {
			cfg.BatchSize = 1
			cfg.PipelineWindow = 8
		}})
	committed, stop := loadClients(c, clients)
	c.run(1500 * time.Millisecond)
	before := len(committed)
	if before == 0 {
		t.Fatal("no commits before crash")
	}
	if got := c.replicas[0].MaxInFlight(); got < 2 {
		t.Fatalf("pipeline not exercised before crash: max in-flight = %d", got)
	}

	// Crash the primary mid-stream, with requests in flight.
	c.net.Crash(0)
	c.run(10 * time.Second)
	stop()
	c.run(2 * time.Second)

	if len(committed) <= before {
		t.Fatalf("no commits after crash: before=%d after=%d (views s1=%d s2=%d)",
			before, len(committed), c.replicas[1].view, c.replicas[2].view)
	}
	// Every client-observed commit must exist on the surviving group.
	for key := range committed {
		for _, id := range []smr.NodeID{1, 2} {
			if _, ok := c.stores[id].Get(key); !ok {
				t.Errorf("replica %d lost committed key %s across view change with in-flight window", id, key)
			}
		}
	}
	c.checkStoresConverge(1, 2)
	c.checkLemma1()
}

// TestPipelineT2 runs the t ≥ 2 prepare/commit pattern with a deep
// window and concurrent clients.
func TestPipelineT2(t *testing.T) {
	const clients = 6
	c := newCluster(t, clusterOpts{t: 2, clients: clients, cfgMod: func(id smr.NodeID, cfg *Config) {
		cfg.BatchSize = 2
		cfg.PipelineWindow = 8
	}})
	committed, stop := loadClients(c, clients)
	c.run(3 * time.Second)
	stop()
	c.run(time.Second)

	if len(committed) < 20 {
		t.Fatalf("too few commits at t=2: %d", len(committed))
	}
	if got := c.replicas[0].MaxInFlight(); got < 2 {
		t.Errorf("t=2 primary never pipelined: max in-flight = %d", got)
	}
	c.checkStoresConverge(0, 1, 2)
	c.checkLemma1()
}

// TestPipelineAcrossCheckpoints runs a deep window through several
// checkpoint stabilizations: log truncation must not disturb in-flight
// batches.
func TestPipelineAcrossCheckpoints(t *testing.T) {
	const clients = 4
	c := newCluster(t, clusterOpts{t: 1, clients: clients, cfgMod: func(id smr.NodeID, cfg *Config) {
		cfg.BatchSize = 1
		cfg.PipelineWindow = 6
		cfg.CheckpointInterval = 4
	}})
	committed, stop := loadClients(c, clients)
	c.run(4 * time.Second)
	stop()
	c.run(time.Second)

	if len(committed) < 30 {
		t.Fatalf("too few commits: %d", len(committed))
	}
	for _, id := range []smr.NodeID{0, 1} {
		r := c.replicas[id]
		if r.chk.SN == 0 {
			t.Errorf("replica %d never checkpointed under pipelined load", id)
		}
		for _, e := range r.log.commits() {
			if e.SN() <= r.chk.SN {
				t.Errorf("replica %d kept entry %d below checkpoint %d", id, e.SN(), r.chk.SN)
			}
		}
	}
	c.checkStoresConverge(0, 1)
	c.checkLemma1()
}
