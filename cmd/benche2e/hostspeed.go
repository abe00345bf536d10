package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// Host speed. The shared 2-vCPU machine the benchmark is calibrated on
// runs the same fixed work up to 30% slower or faster from one minute to
// the next, and a run's times follow, further still (README.md, Host
// speed). So while a pass runs the parent process samples a fixed probe,
// and the pass's end-to-end times and closed-loop rates are scaled by how
// fast the probe ran against its time on the calibration host. The probe
// is this directory's own code on the standard library, and runs in the
// parent, not in the daemons' process.

const (
	// probeRefUS is the probe's median sample time on the calibration
	// host. It sets the scale of every normalized value and no comparison.
	probeRefUS = 700
	// A sample sorts probeSortWords random words, then probeMapRounds
	// times fills a map with probeMapKeys of them and looks each up: the
	// branchy, hashing, cache-resident work the daemons do most. Probes
	// of the cores alone (a chain of register arithmetic) or of memory
	// (loads from a 64 MiB table) tracked the passes less well (README.md,
	// Host speed).
	probeSortWords = 4096
	probeMapKeys   = 2048
	probeMapRounds = 4
	// probeEvery is the pause between samples: a sample and its warm-up
	// take about 1.4 ms, so the probe takes about 1.5% of one CPU.
	probeEvery = 100 * time.Millisecond
)

// prober holds the probe's inputs and reused buffers, so a sample
// allocates nothing.
type prober struct {
	words, buf []uint64
	m          map[uint64]int
}

func newProber() *prober {
	r := rand.New(rand.NewSource(1))
	p := &prober{words: make([]uint64, probeSortWords), buf: make([]uint64, probeSortWords),
		m: make(map[uint64]int, probeMapKeys)}
	for i := range p.words {
		p.words[i] = r.Uint64()
	}
	return p
}

// work does one sample's work and returns a value that depends on all of
// it, so the compiler cannot drop any.
func (p *prober) work() int {
	copy(p.buf, p.words)
	slices.Sort(p.buf)
	sum := int(p.buf[probeSortWords/2] & 1)
	for r := 0; r < probeMapRounds; r++ {
		clear(p.m)
		for i, k := range p.words[:probeMapKeys] {
			p.m[k] = i
		}
		for _, k := range p.words[:probeMapKeys] {
			sum += p.m[k]
		}
	}
	return sum
}

// probeChecksum keeps every sample's result alive.
var probeChecksum int

// probeUntil samples the probe every probeEvery until stop is closed and
// returns the samples in µs. Each sample runs once untimed, so its data
// is in the caches whatever ran on the CPU before, and once timed in the
// CPU time of its own thread, so the time it waits for a CPU the pass
// holds is not counted either.
func probeUntil(stop <-chan struct{}) dist {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p := newProber()
	var out dist
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		probeChecksum += p.work()
		c0 := threadCPU()
		probeChecksum += p.work()
		out = append(out, float64(threadCPU()-c0)/1e3)
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}

// hostSpeed is the probe's reference time over its median time in the
// samples taken during a pass: 1 on the calibration host at its median,
// below 1 when the host ran slower.
func hostSpeed(samples dist) float64 {
	return probeRefUS / samples.percentile(50)
}

// normalize scales a pass's end-to-end metrics to the calibration host's
// speed: a time (unit s or us) is multiplied by speed and a rate (pts/s)
// divided by it. Memory is not scaled, and neither is an open loop's
// rate, which its schedule sets. The per-layer metrics stay as measured,
// with host.speed beside them.
func normalize(m map[string]value, speed float64, n int, closedLoop bool) {
	for _, d := range endToEnd {
		v, ok := m[d.name]
		if !ok {
			continue
		}
		switch {
		case d.unit == "s" || d.unit == "us":
			v.V *= speed
		case d.unit == "pts/s" && closedLoop:
			v.V /= speed
		}
		m[d.name] = v
	}
	m["host.speed"] = value{speed, n}
}
