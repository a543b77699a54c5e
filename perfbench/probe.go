package main

import "time"

// The host the benchmark runs on is shared: other tenants' load slows
// every instruction it executes. Each virtual CPU flips between a fast
// and a slow state (the same work takes about 6 or about 10.5 ms) for
// spells of a fraction of a second to minutes, so wall-clock times of
// the same code differ from run to run by more than any useful bound.
// The cell and set-up times behind the end-to-end metrics are therefore
// scaled to a reference host speed by a probe timed next to them: a
// fixed toy interpreter that belongs to the benchmark, not the program. It
// dispatches a pseudo-random instruction stream over sixteen registers
// and a 1 MiB memory, so the host's state slows it much as it slows the
// simulator's own interpreter loops, while no change to the program can
// speed it up or slow it down.

const (
	// cellProbeSteps is the probe that follows a cell: about 7 ms on
	// the reference host.
	cellProbeSteps = 2_000_000
	// shortProbeSteps is the probe before each set-up: about 0.9 ms,
	// as long as a set-up or less.
	shortProbeSteps = 250_000
)

// probeRefNs is one probe step's time on the reference host, in
// nanoseconds: between the 3.0 and 5.3 ns of the 2-vCPU Xeon virtual
// machine the bounds were set on in its fast and slow states. It sets
// only the scale of the reported times.
const probeRefNs = 3.5

const (
	probeCodeLen = 4096
	probeMemLen  = 1 << 18 // 32-bit words
)

type probeOp struct{ op, a, b, c uint8 }

var (
	probeCode = func() []probeOp {
		x := uint32(2463534242)
		code := make([]probeOp, probeCodeLen)
		for i := range code {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			code[i] = probeOp{uint8(x % 6), uint8(x >> 8 & 15), uint8(x >> 12 & 15), uint8(x >> 16 & 15)}
		}
		return code
	}()
	probeMem  = make([]uint32, probeMemLen)
	probeSink uint32
)

// probe runs the toy interpreter for steps steps and returns the
// host's speed relative to the reference host: above 1 when faster.
func probe(steps int) float64 {
	t0 := time.Now()
	var r [16]uint32
	for i := range r {
		r[i] = uint32(i*7919 + 1)
	}
	pc := 0
	for i := 0; i < steps; i++ {
		c := probeCode[pc]
		pc++
		switch c.op {
		case 0:
			r[c.a] = r[c.b] + r[c.c]
		case 1:
			r[c.a] = r[c.b] ^ r[c.c]<<3
		case 2:
			r[c.a] = probeMem[r[c.b]&(probeMemLen-1)]
		case 3:
			probeMem[r[c.b]&(probeMemLen-1)] = r[c.a] + 1
		case 4:
			r[c.a] = r[c.b]*2654435761 + r[c.c]
		case 5:
			if r[c.a]&1 == 1 {
				pc = int(r[c.b] & (probeCodeLen - 1))
			}
		}
		if pc == probeCodeLen {
			pc = 0
		}
	}
	probeSink = r[0]
	return probeRefNs * float64(steps) / float64(time.Since(t0))
}

// atRefSpeed scales d, measured while the host ran at speed, to the
// reference host speed.
func atRefSpeed(d time.Duration, speed float64) time.Duration {
	return time.Duration(float64(d) * speed)
}
