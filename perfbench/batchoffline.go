package main

import (
	"context"
	"fmt"
	"time"

	"cimmlc"
)

// batch-offline: one caller issues 16-request RunBatch calls for lenet5 on
// isaac-baseline to a Program built WithWorkers(nproc). Pure kernel work:
// no codec, no queue.

const (
	offlineModel = "lenet5"
	offlineArch  = "isaac-baseline"
	offlineBatch = 16
	// offlineInputs distinct seeded inputs are drawn into the batches.
	offlineInputs = 64
	// weightSeed fixes model weights, as cimserve's -weight-seed default
	// does; only the inputs come from the run's seed.
	weightSeed = 42
)

// seededInputs returns n input maps for a program's input schema, drawn
// from the run's seed on the given stream.
func seededInputs(e *env, stream uint64, schema map[int][]int, n int) []map[int]*cimmlc.Tensor {
	rng := e.rng(stream)
	out := make([]map[int]*cimmlc.Tensor, n)
	for i := range out {
		in := map[int]*cimmlc.Tensor{}
		for id, shape := range schema {
			t := cimmlc.NewTensor(shape...)
			t.Rand(rng.Uint64(), 1)
			in[id] = t
		}
		out[i] = in
	}
	return out
}

// graphInputs returns a graph's input schema: node ID to shape.
func graphInputs(g *cimmlc.Graph) map[int][]int {
	schema := map[int][]int{}
	for _, id := range g.InputIDs() {
		schema[id] = g.MustNode(id).OutShape
	}
	return schema
}

// bodyCIMOps counts the crossbar operations one request executes: the CIM
// meta-operators of the flow's compute section (the init section programs
// weights once, at build time).
func bodyCIMOps(fr *cimmlc.FlowResult) int {
	body := *fr.Flow
	body.Init = nil
	return body.Stats().CIMOps
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func buildOffline(ctx context.Context, g *cimmlc.Graph, w cimmlc.Weights, calib map[int]*cimmlc.Tensor) (*cimmlc.Program, error) {
	a, err := cimmlc.Preset(offlineArch)
	if err != nil {
		return nil, err
	}
	c, err := cimmlc.New(a)
	if err != nil {
		return nil, err
	}
	return c.Build(ctx, g, w, cimmlc.CodegenOptions{}, cimmlc.WithCalibration(calib), cimmlc.WithWorkers(nproc()))
}

func runBatchOffline(e *env) error {
	ctx := context.Background()
	g, err := cimmlc.Model(offlineModel)
	if err != nil {
		return err
	}
	w := cimmlc.RandomWeights(g, weightSeed)
	inputs := seededInputs(e, 2, graphInputs(g), offlineInputs)
	// The program is calibrated on the first seeded input, which the
	// correctness gate then verifies against the float reference.
	// Set-up is a fresh compiler and a full Build (compile, lower, weight
	// image) every time, so the artifact cache never hides it.
	p, err := timeSetup(e, e.setupRepeats(5), func() (*cimmlc.Program, error) {
		return buildOffline(ctx, g, w, inputs[0])
	}, func(*cimmlc.Program) {})
	if err != nil {
		return err
	}
	rep := p.Result().Report
	e.set("model_cycles", rep.Cycles)
	e.set("model_energy", rep.Energy)
	e.set("model_peak_power", rep.PeakPower.Total())

	if err := p.Verify(ctx, inputs[0], verifyTol); err != nil {
		return mismatchf("%s: Verify: %v", offlineModel, err)
	}
	want := make([]map[int]*cimmlc.Tensor, len(inputs))
	for i, in := range inputs {
		if want[i], err = p.Run(ctx, in); err != nil {
			return err
		}
	}

	// Batches draw seeded input indices; batch i uses batches[i%len].
	rng := e.rng(3)
	batches := make([][]int, 256)
	for i := range batches {
		batches[i] = make([]int, offlineBatch)
		for j := range batches[i] {
			batches[i][j] = rng.IntN(len(inputs))
		}
	}
	var n int
	var mismatch error
	timed := func(d time.Duration) *phase {
		ph := &phase{}
		start := time.Now()
		reqs := make([]map[int]*cimmlc.Tensor, offlineBatch)
		for time.Since(start) < d && mismatch == nil {
			b := batches[n%len(batches)]
			n++
			for j, k := range b {
				reqs[j] = inputs[k]
			}
			t := time.Now()
			id := e.tr.begin("program.runbatch", 0, int64(n))
			outs, err := p.RunBatch(ctx, reqs)
			e.tr.end(id)
			lat, at := time.Since(t), time.Since(start)
			for range b {
				ph.record(int(at/window), at, lat, 0, err)
			}
			for j, k := range b {
				if err == nil && mismatch == nil {
					mismatch = sameBits(outs[j], want[k])
				}
			}
		}
		ph.elapsed = time.Since(start)
		return ph
	}
	mark := e.tr.mark()
	gc0 := readGC()
	st0 := p.Stats()
	phases := e.measure("runbatch", e.dur(), timed, perOpCost)
	if mismatch != nil {
		return fmt.Errorf("%s RunBatch: %w", offlineModel, mismatch)
	}
	if !e.traced {
		e.setLatency(phases, (*phase).wholeWindow)
		e.set("max_rate_rps", e.m["throughput_rps"])
		return nil
	}
	ops, secs := 0, 0.0
	for _, ph := range phases {
		ops += ph.ok
		secs += ph.elapsed.Seconds()
	}
	e.setGC(gc0, ops)
	st1 := p.Stats()
	spans := e.tr.since(mark)
	cimOps := float64(bodyCIMOps(p.Flow()))
	e.set("program.runbatch_us_per_req", median(byName(spans, "program.runbatch", nil))*1000/offlineBatch)
	e.set("program.batched_frac", ratio(float64(st1.BatchedRequests-st0.BatchedRequests), float64(st1.Requests-st0.Requests)))
	e.set("funcsim.cim_ops_per_req", cimOps)
	e.set("funcsim.cim_ops_per_s", cimOps*float64(ops)/secs)
	e.set("codegen.mops", float64(p.Flow().Flow.Stats().TotalLeaf))

	// Probes off the measured phase: 1-lane Run on the same inputs, and the
	// build path split into compile, lower and weight image.
	e.tr.on.Store(true)
	defer e.tr.on.Store(false)
	mark = e.tr.mark()
	for _, in := range inputs {
		id := e.tr.begin("program.run", 0, 0)
		_, err := p.Run(ctx, in)
		e.tr.end(id)
		if err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		if err := probeBuild(ctx, e, g, w, inputs[0]); err != nil {
			return err
		}
	}
	spans = e.tr.since(mark)
	e.set("program.run_us", median(byName(spans, "program.run", nil))*1000)
	st := p.Stats()
	e.set("program.pool_miss_frac", ratio(float64(st.PoolMisses), float64(st.PoolHits+st.PoolMisses)))
	comp, low := median(byName(spans, "build.compile", nil)), median(byName(spans, "build.lower", nil))
	e.set("build.compile_ms", comp)
	e.set("build.lower_ms", low)
	e.set("build.image_ms", median(byName(spans, "build.build", nil))-comp-low)
	return nil
}

// probeBuild times one compile and one lower on a cache-less compiler, and
// one full Build on a fresh compiler, as spans.
func probeBuild(ctx context.Context, e *env, g *cimmlc.Graph, w cimmlc.Weights, calib map[int]*cimmlc.Tensor) error {
	a, err := cimmlc.Preset(offlineArch)
	if err != nil {
		return err
	}
	c, err := cimmlc.New(a, cimmlc.WithCache(0))
	if err != nil {
		return err
	}
	id := e.tr.begin("build.compile", 0, 0)
	res, err := c.Compile(ctx, g)
	e.tr.end(id)
	if err != nil {
		return err
	}
	id = e.tr.begin("build.lower", 0, 0)
	_, err = c.Lower(ctx, g, res, cimmlc.CodegenOptions{})
	e.tr.end(id)
	if err != nil {
		return err
	}
	id = e.tr.begin("build.build", 0, 0)
	_, err = buildOffline(ctx, g, w, calib)
	e.tr.end(id)
	return err
}
