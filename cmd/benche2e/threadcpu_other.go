//go:build !linux

package main

import "time"

var threadCPUStart = time.Now()

// threadCPU falls back to wall time where the thread's CPU clock is not
// wired up: a probe sample then also counts time it waited for a CPU.
func threadCPU() int64 {
	return int64(time.Since(threadCPUStart))
}
