// Command perfbench is the repository benchmark. It runs one named workload
// against the public API of cimmlc — Compiler, Program, Pipeline, the serving
// gateway and fleet — checks every output, and prints the workload's metrics
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 they are the per-layer ones, taken from spans the
// benchmark records around calls into each layer.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload compile-zoo --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// workload is one named traffic mix. owns lists the prefixes of the
// per-layer metrics it measures, so a traced run of another workload knows
// whom to ask for layers it does not exercise itself.
type workload struct {
	name string
	owns []string
	run  func(e *env) error
}

var workloads = []workload{
	{"compile-zoo", []string{"core.", "perfsim."}, runCompileZoo},
	{"batch-offline", []string{"build.", "codegen.", "program.", "funcsim."}, runBatchOffline},
	{"http-json", []string{"batcher.", "http.", "loadgen.", "program.run_us"}, runHTTPJSON},
	{"staged-mixed", []string{"staged.", "pipeline.", "fleet.", "batcher."}, runStagedMixed},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"success_rate", "fraction"},
	{"max_rate_rps", "req/s"},
	{"mem_peak_mb", "MiB"},
	{"model_cycles", "cycles"},
	{"model_energy", "energy"},
	{"model_peak_power", "power"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.cg-grained_ms", "ms"}, {"core.mvm-grained_ms", "ms"}, {"core.vvm-grained_ms", "ms"},
		{"core.placement_ms", "ms"}, {"core.simulate_ms", "ms"}, {"core.other_ms", "ms"},
		{"core.compile_ms", "ms"},
	}
	for _, c := range zooCells() {
		defs = append(defs, metricDef{"perfsim.cycles." + c.model + "." + c.arch, "cycles"})
	}
	return append(defs,
		metricDef{"perfsim.reload_share", "fraction"}, metricDef{"perfsim.xbs_used", "count"},
		metricDef{"build.compile_ms", "ms"}, metricDef{"build.lower_ms", "ms"},
		metricDef{"build.image_ms", "ms"}, metricDef{"codegen.mops", "count"},
		metricDef{"program.run_us", "us"}, metricDef{"program.runbatch_us_per_req", "us"},
		metricDef{"program.batched_frac", "fraction"}, metricDef{"program.pool_miss_frac", "fraction"},
		metricDef{"funcsim.cim_ops_per_req", "count"}, metricDef{"funcsim.cim_ops_per_s", "1/s"},
		metricDef{"batcher.do_ms_p50", "ms"}, metricDef{"batcher.do_ms_p90", "ms"},
		metricDef{"batcher.mean_batch", "count"}, metricDef{"batcher.deadline_flush_frac", "fraction"},
		metricDef{"batcher.isolation_fallbacks", "count"},
		metricDef{"http.outside_do_ms", "ms"}, metricDef{"http.json_decode_ms", "ms"},
		metricDef{"http.json_encode_ms", "ms"}, metricDef{"http.req_bytes", "bytes"},
		metricDef{"http.resp_bytes", "bytes"},
		metricDef{"staged.partitioned_ms", "ms"}, metricDef{"staged.host_cycles_share", "fraction"},
		metricDef{"pipeline.run_ms", "ms"}, metricDef{"pipeline.stage0_ms", "ms"},
		metricDef{"pipeline.stage1_ms", "ms"}, metricDef{"fleet.do_ms", "ms"},
		metricDef{"go.alloc_kb_per_op", "KiB"}, metricDef{"go.gc_per_kop", "count"},
		metricDef{"loadgen.late_p90_ms", "ms"}, metricDef{"trace.overhead_frac", "fraction"},
	)
}()

// censusSeconds is how long a traced run lets another workload run to fill
// in the per-layer metrics of layers it does not exercise itself.
const censusSeconds = 1.0

// env is one workload invocation: its seed and time budget, the metrics it
// reports and the phases it ran.
type env struct {
	seed    uint64
	seconds float64
	traced  bool // per-layer metrics from a traced run
	census  bool // short traced run on behalf of another workload
	tr      *tracer
	m       map[string]float64
	phases  []*phase
}

func (e *env) dur() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// rng returns a generator for one named input stream of the run; the same
// seed and stream always give the same sequence.
func (e *env) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(e.seed, stream)) }

func (e *env) set(name string, v float64) { e.m[name] = v }

// addPhase keeps a finished phase for the run's accounting and prints its
// request counts.
func (e *env) addPhase(p *phase) {
	e.phases = append(e.phases, p)
	fmt.Println(p)
}

// setupRepeats is how many times an untraced run sets its workload up; the
// median is setup_s.
func (e *env) setupRepeats(n int) int {
	if e.traced {
		return 1
	}
	return n
}

// measure runs a workload's timed phase for budget. An untraced run
// measures one phase. A traced run alternates untraced and traced chunks
// and reports the tracing overhead as the relative change in cost per op
// (cost gives it, from a phase); a census run measures one traced chunk. It
// returns the phases whose spans hold the per-layer data.
func (e *env) measure(name string, budget time.Duration, timed func(d time.Duration) *phase, cost func(*phase) float64) []*phase {
	if !e.traced {
		p := timed(budget)
		p.name = name
		e.addPhase(p)
		return []*phase{p}
	}
	if e.census {
		e.tr.on.Store(true)
		p := timed(budget)
		e.tr.on.Store(false)
		p.name = name + ".census"
		e.addPhase(p)
		return []*phase{p}
	}
	const chunks = 6
	var traced []*phase
	var off, on []float64
	for k := 0; k < chunks; k++ {
		e.tr.on.Store(k%2 == 1)
		p := timed(budget / chunks)
		e.tr.on.Store(false)
		if k%2 == 1 {
			p.name = name + ".traced"
			traced = append(traced, p)
			on = append(on, cost(p))
		} else {
			p.name = name + ".untraced"
			off = append(off, cost(p))
		}
		e.addPhase(p)
	}
	e.set("trace.overhead_frac", sum(on)/sum(off)-1)
	return traced
}

// perOpCost is the cost per op of a closed loop: its inverse throughput.
func perOpCost(p *phase) float64 { return 1 / p.rps() }

// setGC reports allocation and GC cycles per op over a measured span.
func (e *env) setGC(before gcCounters, ops int) {
	kb, gc := before.perOp(readGC(), ops)
	e.set("go.alloc_kb_per_op", kb)
	e.set("go.gc_per_kop", gc)
}

// setLatency reports the medians of the throughput and latency
// percentiles of the phases' windows for which full holds, and prints how
// many samples back them.
func (e *env) setLatency(phases []*phase, full func(p *phase, w int) bool) {
	rps, p50, p90 := windowStats(phases, full)
	e.set("throughput_rps", median(rps))
	e.set("latency_p50_ms", median(p50))
	e.set("latency_p90_ms", median(p90))
	var lat []float64
	for _, p := range phases {
		lat = append(lat, p.lat...)
	}
	if line, err := json.Marshal(map[string]any{"latency_samples": len(lat), "above_p90": above(lat, percentile(lat, 90)),
		"window_rps": rps, "window_p50_ms": p50, "window_p90_ms": p90}); err == nil {
		fmt.Println(string(line))
	}
}

// timeSetup runs setup n times and reports the median as setup_s. Every
// instance but the last is torn down with closeFn; the last is returned.
func timeSetup[T any](e *env, n int, setup func() (T, error), closeFn func(T)) (T, error) {
	var times []float64
	var v T
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(v)
		}
		// Each set-up starts from a collected heap, so the previous
		// instance's garbage is not charged to it.
		runtime.GC()
		start := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	e.set("setup_s", median(times))
	if line, err := json.Marshal(map[string]any{"setup_times_s": times}); err == nil {
		fmt.Println(string(line))
	}
	return v, nil
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	spans := flag.String("spans", "", "directory traced runs write their spans to (empty: not written)")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}

	rec := newHostRecord(w.name, *seed, *seconds, *trace == 1, testing.Testing())
	if line, err := json.Marshal(map[string]any{"config": rec}); err == nil {
		fmt.Println(string(line))
	}
	if rec.GOMAXPROCS != rec.NumCPU || rec.VerifyIR {
		fmt.Fprintln(os.Stderr, "perfbench: wrong configuration: GOMAXPROCS must equal nproc and the IR verifier must be off")
		return 1
	}

	mem := startMemSampler()
	e := &env{seed: *seed, seconds: float64(*seconds), traced: *trace == 1, m: map[string]float64{}}
	if e.traced {
		e.tr = newTracer()
	}
	err := w.run(e)
	if err == nil && e.traced {
		err = fillCensus(e, w)
	}
	peak := mem.finish()
	e.set("mem_peak_mb", peak)

	if e.traced && *spans != "" {
		if werr := e.tr.write(*spans, spanFile(w.name, *seed)); werr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", werr)
		}
	}
	correct := true
	switch {
	case errors.Is(err, errMismatch):
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		correct = false
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	attempted, failed := 0, 0
	for _, p := range e.phases {
		attempted += p.sent
		failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: first failure: %v\n", p.name, p.firstErr)
		}
	}
	if attempted > 0 {
		e.set("success_rate", float64(attempted-failed)/float64(attempted))
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := e.m[d.name]
		if !ok && correct {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", w.name, d.name)
			return 1
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// fillCensus completes a traced run's per-layer metrics: every layer the
// workload did not exercise is measured by a short traced run of the
// workload that owns it.
func fillCensus(e *env, self workload) error {
	for _, w := range workloads {
		if w.name == self.name || !missingOwned(e, w) {
			continue
		}
		c := &env{seed: e.seed, seconds: censusSeconds, traced: true, census: true, tr: e.tr, m: map[string]float64{}}
		if err := w.run(c); err != nil {
			return fmt.Errorf("census %s: %w", w.name, err)
		}
		for k, v := range c.m {
			if _, ok := e.m[k]; !ok && owned(w, k) {
				e.m[k] = v
			}
		}
		e.phases = append(e.phases, c.phases...)
	}
	return nil
}

func owned(w workload, metric string) bool {
	for _, p := range w.owns {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

func missingOwned(e *env, w workload) bool {
	for _, d := range perLayer {
		if _, ok := e.m[d.name]; !ok && owned(w, d.name) {
			return true
		}
	}
	return false
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// nproc is the client concurrency bound: load comes from one process with
// at most this many client goroutines or connections.
func nproc() int { return runtime.NumCPU() }
