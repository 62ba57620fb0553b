//go:build !unix

package main

import "time"

// Without getrusage the CPU and RSS metrics read zero; every other
// metric is unaffected.
func cpuTime() time.Duration { return 0 }
func peakRSSMB() float64     { return 0 }
