package main

import "time"

// The benchmark's host changes speed over tens of milliseconds: on the
// 2-CPU reference host, back-to-back runs of the same build and seed
// differed by up to 40% in simulated µs per wall second, with no CPU
// steal visible inside the guest (other tenants share the physical
// cores). The wall-clock metrics are therefore expressed in reference
// seconds: wall time scaled by the host's speed over the same stretch
// of time, measured by a fixed calibration loop that runs interleaved
// with the measured work (one short chunk after every simulated grid
// step) relative to the loop's nominal speed. On an undisturbed
// reference host a reference second is a wall second.
//
// The loop mixes what the simulator spends its time on: random reads
// over an 8 MiB table (cache misses), Go map updates over 64Ki keys,
// and integer arithmetic. Its code and inputs are fixed; changing them
// rescales every wall-clock metric.

// calibNominal is the loop's typical speed, in iterations per second,
// when run in calibChunk pieces between simulator steps on the
// reference host.
const calibNominal = 8e6

// calibChunk is one interleaved calibration's length (~1.2 ms on the
// reference host).
const calibChunk = 10_000

var (
	calibTable = func() []uint64 {
		t := make([]uint64, 1<<20)
		for i := range t {
			t[i] = uint64(i) * 2654435761
		}
		return t
	}()
	calibMap = func() map[uint64]uint64 {
		m := make(map[uint64]uint64, 1<<16)
		for i := uint64(0); i < 1<<16; i++ {
			m[i] = i
		}
		return m
	}()
	calibSink uint64
)

// calibState is the loop's generator state; it carries over between
// chunks so every chunk reads fresh table positions.
var calibState = uint64(88172645463325252)

// calib runs n iterations of the calibration loop and returns its wall
// time.
func calib(n int) time.Duration {
	t0 := time.Now()
	x := calibState
	var acc uint64
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := calibTable[x>>44]
		calibMap[x>>48] += v
		acc += v ^ x
	}
	calibState = x
	calibSink += acc
	return time.Since(t0)
}

// clock accumulates a measured interval's wall time and the calibration
// chunks interleaved with it.
type clock struct {
	wall, calibWall time.Duration
	calibN          int
}

// time runs f, then one calibration chunk.
func (c *clock) time(f func()) {
	t0 := time.Now()
	f()
	c.wall += time.Since(t0)
	c.chunk()
}

// chunk runs one calibration chunk.
func (c *clock) chunk() {
	c.calibWall += calib(calibChunk)
	c.calibN += calibChunk
}

// speed is the host's speed over the interval relative to the reference
// host (1 = reference speed, 0.8 = 20% slower).
func (c *clock) speed() float64 {
	return float64(c.calibN) / c.calibWall.Seconds() / calibNominal
}

// refSeconds is the interval's wall time in reference seconds.
func (c *clock) refSeconds() float64 { return c.wall.Seconds() * c.speed() }
