package smp

import (
	"sync"

	"repro/internal/vm"
)

// capture is a vm.BatchSink that buffers a quantum's event stream for
// deferred, deterministically ordered replay. The buffer is reused
// across rounds, so steady-state capture allocates nothing once it has
// grown to the quantum size.
type capture struct{ evs []vm.Event }

func (c *capture) reset() { c.evs = c.evs[:0] }

// OnEvent buffers one event (per-event fallback path).
func (c *capture) OnEvent(ev *vm.Event) { c.evs = append(c.evs, *ev) }

// OnEvents buffers a batch. The VM reuses the batch slice, so the
// events are copied out.
func (c *capture) OnEvents(evs []vm.Event) { c.evs = append(c.evs, evs...) }

// runParallel executes the quantum schedule with one host goroutine
// per unfinished guest and a deterministic barrier rendezvous at every
// quantum boundary. It is bit-identical to runSequential — the
// contract check.SMPEquivalence pins — by construction:
//
//   - A guest's functional execution depends only on its own VM state.
//     Timing sinks never feed back into architectural execution, so
//     running the guests' quanta concurrently cannot change what any
//     guest computes, and each round's per-guest instruction counts
//     (and therefore budget exhaustion, halt points, and sampling
//     interval boundaries) match the sequential schedule exactly.
//
//   - The only cross-guest coupling is the shared L2, which the cores
//     touch. In timed rounds each guest therefore runs its VM quantum
//     against a capture sink instead of its core, and the buffered
//     event streams are replayed into the cores in fixed guest order —
//     the deterministic merge rule. The replayed shared-L2 access
//     sequence is then exactly the sequential round-robin sequence:
//     guest 0's whole quantum, then guest 1's, and so on.
//
// The replay itself is pipelined, not barriered: a dedicated replayer
// goroutine drains round k's captures (in guest order) while the VMs
// already execute round k+1. The unbuffered hand-off channel plus
// double-buffered captures make that safe: sending round k+1 cannot
// complete until the replayer has finished round k, so by the time the
// main goroutine launches round k+2 — which reuses round k's buffers —
// those buffers are free. Cores and the shared L2 are only ever
// touched by the replayer goroutine; VMs only by their guest's
// per-round goroutine; bookkeeping only by the caller between
// barriers. Run returns only after the replayer has drained every
// round, so markers, statistics, and estimates read after a run are
// final.
func (s *System) runParallel(n uint64, timed bool) {
	remaining := make([]uint64, len(s.guests))
	runnable := false
	for i, g := range s.guests {
		remaining[i] = g.remaining(n)
		if remaining[i] > 0 && !g.Machine.Halted() {
			runnable = true
		}
	}
	if !runnable {
		return
	}

	var (
		rounds chan int // parity of a captured round, ready for replay
		done   chan struct{}
	)
	if timed {
		rounds = make(chan int) // unbuffered: see pipelining note above
		done = make(chan struct{})
		go func() {
			defer close(done)
			for par := range rounds {
				for _, g := range s.guests {
					if evs := g.caps[par].evs; len(evs) > 0 {
						g.Core.OnEvents(evs)
						s.obsReplay.Add(uint64(len(evs)))
					}
				}
			}
		}()
	}

	ex := make([]uint64, len(s.guests))
	var wg sync.WaitGroup
	for par := 0; ; par ^= 1 {
		launched := false
		for i, g := range s.guests {
			ex[i] = 0
			if remaining[i] == 0 || g.Machine.Halted() {
				if timed {
					// A guest idle this round must not leave a stale
					// capture from two rounds ago under this parity —
					// the replayer replays every non-empty buffer.
					g.caps[par].reset()
				}
				continue
			}
			q := s.cfg.Quantum
			if q > remaining[i] {
				q = remaining[i]
			}
			launched = true
			s.obsQuanta.Inc()
			wg.Add(1)
			go func(i int, g *Guest, q uint64) {
				defer wg.Done()
				var sink vm.BatchSink
				if timed {
					g.caps[par].reset()
					sink = &g.caps[par]
				}
				ex[i] = g.Machine.Run(q, sink)
			}(i, g, q)
		}
		if !launched {
			break
		}
		wg.Wait() // barrier: every guest's quantum is complete

		progress := false
		for i, g := range s.guests {
			g.executed += ex[i]
			remaining[i] -= ex[i]
			g.obsInstr.Add(ex[i])
			if ex[i] > 0 {
				progress = true
			}
		}
		s.obsRounds.Inc()
		if timed {
			rounds <- par // hand the round to the replayer
		}
		if !progress {
			break
		}
	}
	if timed {
		close(rounds)
		<-done // drain: cores are final before run returns
	}
}
