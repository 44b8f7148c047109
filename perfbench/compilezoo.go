package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"cimmlc"
)

// compile-zoo: one caller compiles every (model, arch) cell of a small zoo
// with the artifact cache off, in a seeded order. It runs every compile
// pass and the performance simulator across all three computing modes
// (WLM, XBM, CM) and no executor or serving code.

var (
	zooModels = []string{"lenet5", "vgg7", "resnet18", "resnet50", "vit-tiny"}
	zooArchs  = []string{"isaac-baseline", "puma", "jia-isscc21"} // WLM, XBM, CM
)

// zooWindowCycles whole cycles form one reporting window (about a second).
const zooWindowCycles = 4

type cell struct{ model, arch string }

func zooCells() []cell {
	var cs []cell
	for _, m := range zooModels {
		for _, a := range zooArchs {
			cs = append(cs, cell{m, a})
		}
	}
	return cs
}

// corePasses are the compile passes timed through WithTrace.
var corePasses = []string{cimmlc.PassCG, cimmlc.PassMVM, cimmlc.PassVVM, cimmlc.PassPlace, cimmlc.PassSimulate}

type zooSetup struct {
	compilers map[string]*cimmlc.Compiler
	graphs    map[string]*cimmlc.Graph
}

func runCompileZoo(e *env) error {
	ctx := context.Background()
	cells := zooCells()
	// The WithTrace hook attributes each pass to the compile span the
	// single caller has open.
	var curSpan, curReq atomic.Int64
	hook := func(ev cimmlc.TraceEvent) {
		if ev.Skipped || ev.Duration <= 0 {
			return
		}
		now := time.Now()
		e.tr.add("core."+ev.Pass, int(curSpan.Load()), curReq.Load(), now.Add(-ev.Duration), now)
	}
	setup := func() (*zooSetup, error) {
		z := &zooSetup{compilers: map[string]*cimmlc.Compiler{}, graphs: map[string]*cimmlc.Graph{}}
		for _, name := range zooArchs {
			a, err := cimmlc.Preset(name)
			if err != nil {
				return nil, err
			}
			opts := []cimmlc.Option{cimmlc.WithCache(0)}
			if e.traced {
				opts = append(opts, cimmlc.WithTrace(hook))
			}
			if z.compilers[name], err = cimmlc.New(a, opts...); err != nil {
				return nil, err
			}
		}
		for _, name := range zooModels {
			g, err := cimmlc.Model(name)
			if err != nil {
				return nil, err
			}
			z.graphs[name] = g
		}
		return z, nil
	}
	z, err := timeSetup(e, e.setupRepeats(30), setup, func(*zooSetup) {})
	if err != nil {
		return err
	}

	// Correctness, outside timing: the IR verifier accepts every cell, and
	// two compiles of a cell give identical reports.
	ref := map[cell]*cimmlc.Report{}
	for _, c := range cells {
		a, err := cimmlc.Preset(c.arch)
		if err != nil {
			return err
		}
		vc, err := cimmlc.New(a, cimmlc.WithCache(0), cimmlc.WithVerifyIR())
		if err != nil {
			return err
		}
		vres, err := vc.Compile(ctx, z.graphs[c.model])
		if err != nil {
			return mismatchf("%s on %s: IR verifier: %v", c.model, c.arch, err)
		}
		var reps [2]*cimmlc.Report
		for i := range reps {
			res, err := z.compilers[c.arch].Compile(ctx, z.graphs[c.model])
			if err != nil {
				return fmt.Errorf("compile %s on %s: %w", c.model, c.arch, err)
			}
			reps[i] = res.Report
		}
		for _, r := range []*cimmlc.Report{reps[1], vres.Report} {
			if err := sameReport(r, reps[0]); err != nil {
				return fmt.Errorf("%s on %s: %w", c.model, c.arch, err)
			}
		}
		ref[c] = reps[0]
	}
	var cyc, energy, power []float64
	for _, c := range cells {
		cyc = append(cyc, ref[c].Cycles)
		energy = append(energy, ref[c].Energy)
		power = append(power, ref[c].PeakPower.Total())
	}
	e.set("model_cycles", geomean(cyc))
	e.set("model_energy", geomean(energy))
	e.set("model_peak_power", geomean(power))

	// The timed phase runs whole cycles over the 15 cells, each cycle in a
	// fresh seeded order, so every phase compiles the same mix; windows are
	// groups of zooWindowCycles whole cycles.
	rng := e.rng(1)
	var reqs int64
	var mismatch error
	timed := func(d time.Duration) *phase {
		p := &phase{}
		start := time.Now()
		for cycle := 0; time.Since(start) < d && mismatch == nil; cycle++ {
			for _, k := range rng.Perm(len(cells)) {
				c := cells[k]
				reqs++
				curReq.Store(reqs)
				t := time.Now()
				id := e.tr.begin("compile", 0, reqs)
				curSpan.Store(int64(id))
				res, err := z.compilers[c.arch].Compile(ctx, z.graphs[c.model])
				e.tr.end(id)
				p.record(cycle/zooWindowCycles, time.Since(start), time.Since(t), 0, err)
				if err == nil && mismatch == nil {
					if mismatch = sameHeadline(res.Report, ref[c]); mismatch != nil {
						mismatch = fmt.Errorf("%s on %s: %w", c.model, c.arch, mismatch)
					}
				}
			}
		}
		p.elapsed = time.Since(start)
		return p
	}
	mark := e.tr.mark()
	gc0 := readGC()
	phases := e.measure("compile", e.dur(), timed, perOpCost)
	if mismatch != nil {
		return mismatch
	}
	ops := 0
	for _, p := range phases {
		ops += p.sent
	}
	if !e.traced {
		p := phases[0]
		n := map[int]int{}
		for _, w := range p.win {
			n[w]++
		}
		e.setLatency([]*phase{p}, func(_ *phase, w int) bool { return n[w] == zooWindowCycles*len(cells) })
		e.set("max_rate_rps", e.m["throughput_rps"])
		return nil
	}
	e.setGC(gc0, ops)

	spans := e.tr.since(mark)
	cycles := float64(ops) / float64(len(cells))
	passTotal := 0.0
	for _, name := range corePasses {
		v := sum(byName(spans, "core."+name, nil)) / cycles
		passTotal += v
		e.set("core."+name+"_ms", v)
	}
	self := selfTimes(spans)
	other := sum(byName(spans, "compile", self)) / cycles
	compile := sum(byName(spans, "compile", nil)) / cycles
	e.set("core.other_ms", other)
	e.set("core.compile_ms", compile)
	if !e.census {
		// The traced pass times plus core.other_ms should account for the
		// untraced compile time per cycle, within the tracing overhead.
		untraced, n := 0.0, 0
		for _, p := range e.phases {
			if p.name == "compile.untraced" {
				untraced += sum(p.lat)
				n += p.sent
			}
		}
		untraced /= float64(n) / float64(len(cells))
		fmt.Printf(`{"reconcile":{"passes_plus_other_ms":%.3f,"untraced_compile_ms":%.3f,"diff_frac":%.4f}}`+"\n",
			passTotal+other, untraced, (passTotal+other)/untraced-1)
	}

	reload, total, xbs := 0.0, 0.0, 0
	for _, c := range cells {
		r := ref[c]
		e.set("perfsim.cycles."+c.model+"."+c.arch, r.Cycles)
		reload += r.ReloadCycles
		total += r.Cycles
		xbs += r.XBsUsed
	}
	e.set("perfsim.reload_share", reload/total)
	e.set("perfsim.xbs_used", float64(xbs))
	return nil
}
