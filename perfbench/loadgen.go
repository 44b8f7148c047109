package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// failLatency is the latency charged to a failed, refused or timed-out
// request: the gateway's request timeout, so a failure misses every latency
// limit the benchmark applies.
const failLatency = 30 * time.Second

// window is the length of the time windows a phase's latency percentiles
// are reported over: each is the median of its per-window values, so a
// burst of host noise moves one window, not the result.
const window = time.Second

// phase accounts one timed phase of a workload: requests sent, succeeded
// and failed, the latency of each (failures charged failLatency) and the
// window it completed in, and for an open loop how late the generator sent
// each request.
type phase struct {
	name             string
	sent, ok, failed int
	lat              []float64 // ms
	win              []int
	at               []time.Duration // completion, from the phase start
	late             []float64       // ms
	elapsed          time.Duration
	firstErr         error
	mu               sync.Mutex
}

// record accounts one operation that completed at offset at from the
// phase start, in window win, after lat; late is how far past its due time
// an open-loop request was sent (0 in a closed loop).
func (p *phase) record(win int, at, lat, late time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sent++
	if err != nil {
		p.failed++
		lat = failLatency
		if p.firstErr == nil {
			p.firstErr = err
		}
	} else {
		p.ok++
	}
	p.lat = append(p.lat, float64(lat)/float64(time.Millisecond))
	p.win = append(p.win, win)
	p.at = append(p.at, at)
	p.late = append(p.late, float64(late)/float64(time.Millisecond))
}

// windowOf is the time window of an event happening now.
func windowOf(start time.Time) int { return int(time.Since(start) / window) }

// windowStats returns, for each window w of each phase p for which full(p,
// w) holds, its throughput — successes completing after the window's first
// completion, over the time from that completion to the last — and its 50th
// and 90th latency percentiles.
func windowStats(phases []*phase, full func(p *phase, w int) bool) (rps, p50, p90 []float64) {
	for _, p := range phases {
		r, l50, l90 := p.windowStats(func(w int) bool { return full(p, w) })
		rps, p50, p90 = append(rps, r...), append(p50, l50...), append(p90, l90...)
	}
	return rps, p50, p90
}

func (p *phase) windowStats(full func(w int) bool) (rps, p50, p90 []float64) {
	type win struct {
		lats        []float64
		ok          int
		first, last time.Duration
	}
	wins := map[int]*win{}
	for i, w := range p.win {
		x := wins[w]
		if x == nil {
			x = &win{first: p.at[i], last: p.at[i]}
			wins[w] = x
		}
		x.lats = append(x.lats, p.lat[i])
		x.first, x.last = min(x.first, p.at[i]), max(x.last, p.at[i])
	}
	for i, w := range p.win {
		if x := wins[w]; p.at[i] > x.first && p.lat[i] < float64(failLatency)/float64(time.Millisecond) {
			x.ok++
		}
	}
	for w, x := range wins {
		if !full(w) || x.last <= x.first {
			continue
		}
		rps = append(rps, float64(x.ok)/(x.last-x.first).Seconds())
		p50 = append(p50, percentile(x.lats, 50))
		p90 = append(p90, percentile(x.lats, 90))
	}
	return rps, p50, p90
}

// wholeWindow reports whether time window w lies entirely inside the phase.
func (p *phase) wholeWindow(w int) bool { return w < int(p.elapsed/window) }

// rps is the phase's completed operations per second.
func (p *phase) rps() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.ok) / p.elapsed.Seconds()
}

func (p *phase) String() string {
	return fmt.Sprintf(`{"phase":%q,"sent":%d,"succeeded":%d,"failed":%d,"seconds":%.3f}`,
		p.name, p.sent, p.ok, p.failed, p.elapsed.Seconds())
}

// closedLoop runs clients callers, each issuing op back to back — the next
// only after the previous returns — until d has elapsed. op receives a
// global operation index so callers can look their input up in a seeded
// schedule.
func closedLoop(name string, clients int, d time.Duration, op func(i int) error) *phase {
	start := time.Now()
	p := &phase{name: name}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				t := time.Now()
				err := op(i)
				at := time.Since(start)
				p.record(int(at/window), at, time.Since(t), 0, err)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// spinAhead is how long before a request's due time the open-loop generator
// stops sleeping and polls the clock instead: a timer wake-up on an idle
// (virtual) CPU can overshoot by a millisecond or more, and that lateness
// would be charged to the program.
const spinAhead = time.Millisecond

// arrivals returns the due times, as offsets from the phase start, of an
// open-loop schedule at rate requests/second lasting d. Gaps are the mean
// interval jittered uniformly by ±50% from rng, so the seed fixes the
// schedule.
func arrivals(rate float64, d time.Duration, rng *rand.Rand) []time.Duration {
	mean := float64(time.Second) / rate
	var dues []time.Duration
	t := 0.0
	for {
		t += mean * (0.5 + rng.Float64())
		if time.Duration(t) >= d {
			return dues
		}
		dues = append(dues, time.Duration(t))
	}
}

// openLoop sends request i at its due time whatever the program's state,
// over at most conns concurrent connections. A request is timed from when it
// was due, so a stall also charges the requests it delays; how late the
// generator sent each one is recorded beside it.
func openLoop(name string, conns int, dues []time.Duration, op func(i int) error) *phase {
	start := time.Now()
	p := &phase{name: name}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				due := start.Add(dues[i])
				if w := time.Until(due) - spinAhead; w > 0 {
					time.Sleep(w)
				}
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				late := time.Since(due)
				err := op(i)
				at := time.Since(start)
				p.record(int(at/window), at, at-dues[i], late, err)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}
