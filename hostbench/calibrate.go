package main

import (
	"math/rand/v2"
	"sort"
	"time"
)

// The benchmark's host is shared: other tenants change how fast it runs by
// 20% or more for tens of seconds at a time, which no repetition inside a
// run averages out. So every run also times calibrate, a fixed computation
// of the benchmark's own that no change to the repository can alter, and
// scales its end-to-end times to the speed at which calibrate takes
// calRef. calibrate is a small bytecode interpreter with a hash-table side
// effect, followed by a sort.Slice of fixed pseudo-random keys, so that,
// like the VM, it is bound by branches, indirect calls, dispatch and cache
// hits. Over four minutes on that host, VM ops slowed about 1.8 times as
// much (in log terms) as the interpreter loop alone, and about as much as
// the loop and the sort together; with the sort added, the VM's time over
// 10 s windows, divided by calibrate's, spread about half as much.

// calRef is calibrate's time on the reference host speed: about its median
// on the quiet 2-vCPU Xeon the benchmark was built on.
const calRef = 5 * time.Millisecond

// calEvery is how often, in measured time, the ops pause for calibration;
// a calibration takes about calRef, so it costs about 5% of a run.
const calEvery = 100 * time.Millisecond

// calWindow is how far from an op's end the calibrations that scale it
// may lie: short against the host's speed swings, long enough to hold
// about ten calibrations.
const calWindow = 500 * time.Millisecond

// calProg is the interpreted loop body: opcode, destination, source.
var calProg = [...][3]uint8{
	{0, 0, 1}, {1, 2, 0}, {2, 3, 2}, {3, 4, 3}, {0, 5, 4}, {4, 6, 5},
	{5, 7, 6}, {1, 1, 7}, {6, 0, 1}, {2, 2, 0}, {3, 3, 2}, {7, 4, 3},
}

const (
	calIters = 20_000
	calMem   = 1 << 12
	calKeysN = 20_000
)

var (
	calTable = make(map[uint32]uint32, 1<<10)
	calSink  uint32
)

// calibrate runs the reference computation once and returns how long it
// took.
func calibrate() time.Duration {
	var mem [calMem]uint32
	r := [8]uint32{1, 3, 5, 7, 11, 13, 17, 19}
	start := time.Now()
	for i := 0; i < calIters; i++ {
		for _, in := range calProg {
			a, b := &r[in[1]], r[in[2]]
			switch in[0] {
			case 0:
				*a += b
			case 1:
				*a ^= b << 3
			case 2:
				*a = *a*2654435761 + b
			case 3:
				mem[b%calMem] = *a
			case 4:
				*a += mem[(*a^b)%calMem]
			case 5:
				if b&1 == 0 {
					*a -= b >> 2
				} else {
					*a |= b >> 5
				}
			case 6:
				calTable[b&1023] += *a
			case 7:
				*a ^= calTable[b&1023]
			}
		}
	}
	// The keys are made afresh each time, so they are garbage by the next
	// heap sample and do not count in heap_live_mb.
	keys := make([]uint32, calKeysN)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	calSink += r[0] + r[4] + keys[calKeysN/2]
	return time.Since(start)
}

// speedFactor is the reference speed over the host speed the calibration
// samples (in ms) show; a time multiplied by it reads as if measured at
// the reference speed.
func speedFactor(samples []float64) float64 {
	return float64(calRef) / float64(time.Millisecond) / median(samples)
}
