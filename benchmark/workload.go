package main

import "time"

// workload is one named traffic mix on one cluster shape. Every field
// is fixed by the name: the command line chooses a workload, a seed and
// a run length, never a knob of the program under test.
type workload struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json

	t       int  // fault threshold, n = 2t+1 replicas
	tls     bool // mutual TLS on every connection (the xft-server default)
	wal     bool // wal.Open on a temp dir per replica
	delta   time.Duration
	probe   time.Duration // keepalive interval on every node
	probeTO time.Duration // keepalive silence reported as PeerDown
	reqTO   time.Duration // client retransmission / replica watch timer

	clients int // client nodes, never more than nproc on the sizing box
	window  int // outstanding requests per client node
	rate    int // open loop: requests per second over all clients; 0 = closed loop

	valueBytes int
	getShare   int // percent of requests that are gets once every key is written

	warmup time.Duration // closed loop: load before the measured window opens
	boots  int           // closed loop: clusters booted to time set-up; the last carries the load

	// crash-primary only: every round boots a fresh cluster, runs the
	// schedule for settle+steady, stops replica 0 and runs post more.
	crash                bool
	settle, steady, post time.Duration
}

// keysPerClient is each client's private key set. It is far larger than
// any window, so one client never has two requests on one key in
// flight and every reply has exactly one correct answer.
const keysPerClient = 1000

// checkpointInterval is CHK for every workload (the xft-server value).
const checkpointInterval = 256

// deadline is how long after its issue (closed loop) or due (open
// loop) time a request may commit before it counts as failed.
const deadline = 5 * time.Second

var workloads = []workload{
	{
		name: "put1k-sat",
		why:  "t=1, TLS, WAL, 2 clients x window 32 closed loop of 1 KiB puts: batches fill to 20, so per-request crypto, the WAL and the primary's event loop set the throughput",
		t:    1, tls: true, wal: true, delta: 500 * time.Millisecond,
		probe: time.Second, probeTO: 3 * time.Second, reqTO: 2 * time.Second,
		clients: 2, window: 32, valueBytes: 1024, warmup: 5 * time.Second, boots: 3,
	},
	{
		name: "put1k-lockstep",
		why:  "same cluster, 1 client x window 1: every batch holds one request, so per-batch signing, the prepare/commit hop and queue hand-offs are unamortised and set the latency",
		t:    1, tls: true, wal: true, delta: 500 * time.Millisecond,
		probe: time.Second, probeTO: 3 * time.Second, reqTO: 2 * time.Second,
		clients: 1, window: 1, valueBytes: 1024, warmup: 3 * time.Second, boots: 3,
	},
	{
		name: "mix4k-t2",
		why:  "t=2 (n=5, prepare/commit pattern), plaintext TCP, no WAL, 2 clients x window 16 of 50% gets / 50% 4 KiB puts: bytes-heavy wire, transport and hashing with WAL and TLS bypassed",
		t:    2, tls: false, wal: false, delta: 500 * time.Millisecond,
		probe: time.Second, probeTO: 3 * time.Second, reqTO: 2 * time.Second,
		clients: 2, window: 16, valueBytes: 4096, getShare: 50, warmup: 5 * time.Second, boots: 3,
	},
	{
		name: "crash-primary",
		why:  "t=1, TLS, WAL, open loop at 500 ops/s of 1 KiB puts; each round stops the primary mid-schedule: health probing, view change and client retransmission, which no other workload touches",
		t:    1, tls: true, wal: true, delta: 100 * time.Millisecond,
		probe: 100 * time.Millisecond, probeTO: 300 * time.Millisecond, reqTO: time.Second,
		clients: 2, window: 64, rate: 500, valueBytes: 1024,
		crash: true, settle: time.Second, steady: 3 * time.Second, post: 5 * time.Second,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
