package main

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"time"

	"cimmlc"
	"cimmlc/serving"
	"cimmlc/serving/fleet"
)

// staged-mixed: two closed-loop clients alternate, by seed, between two
// staged executors: conv-gate under host fallback on isaac-baseline (a
// partitioned CIM→host Program behind a Batcher), and mlp under stationary
// weights on jia-isscc21 shrunk to 2×4 cores (a 2-stage cross-chip Pipeline
// behind a 1-replica fleet in pipeline mode).

const (
	gateModel  = "conv-gate"
	gateArch   = "isaac-baseline"
	pipeModel  = "mlp"
	pipeArch   = "jia-small"
	pipeStages = 2
	// stagedInputs distinct seeded inputs per model are drawn into the
	// stream.
	stagedInputs = 16
)

// smallJia is jia-isscc21 shrunk to a 2×4 core grid, too small for the zoo
// mlp under stationary weights, so the fleet pipelines it across chips.
func smallJia() (*cimmlc.Arch, error) {
	a, err := cimmlc.Preset("jia-isscc21")
	if err != nil {
		return nil, err
	}
	a.Name = pipeArch
	a.Chip.CoreRows, a.Chip.CoreCols = 2, 4
	return a, nil
}

type stagedSetup struct {
	gate    *cimmlc.Program
	batcher *serving.Batcher
	pipeReg *serving.Registry
	fleet   *fleet.Fleet
}

func (s *stagedSetup) close() {
	s.batcher.Close()
	s.fleet.Close()
}

func setupStaged(gateCalib, pipeCalib map[int]*cimmlc.Tensor) (*stagedSetup, error) {
	ctx := context.Background()
	gateReg := serving.NewRegistry(serving.WithHostFallback(), serving.WithWeightSeed(weightSeed),
		serving.WithBuildOptions(cimmlc.WithCalibration(gateCalib)))
	gate, err := gateReg.Get(ctx, gateModel, gateArch)
	if err != nil {
		return nil, err
	}
	if gate.Stats().Partition == nil {
		return nil, fmt.Errorf("%s on %s built unpartitioned", gateModel, gateArch)
	}
	pipeReg := serving.NewRegistry(serving.WithStationaryWeights(), serving.WithWeightSeed(weightSeed),
		serving.WithBuildOptions(cimmlc.WithCalibration(pipeCalib)))
	a, err := smallJia()
	if err != nil {
		return nil, err
	}
	if err := pipeReg.RegisterArch(a); err != nil {
		return nil, err
	}
	fl, err := fleet.New(ctx, pipeReg, fleet.Config{Model: pipeModel, Arch: pipeArch, Replicas: 1, Batcher: serveBatch})
	if err != nil {
		return nil, err
	}
	if st := fl.State(); st.Mode != "pipeline" || st.Stages != pipeStages {
		fl.Close()
		return nil, fmt.Errorf("%s on %s: fleet mode %s with %d stages, want pipeline with %d", pipeModel, pipeArch, st.Mode, st.Stages, pipeStages)
	}
	return &stagedSetup{gate: gate, batcher: serving.NewBatcher(gate, serveBatch), pipeReg: pipeReg, fleet: fl}, nil
}

func runStagedMixed(e *env) error {
	ctx := context.Background()
	gateG, err := cimmlc.Model(gateModel)
	if err != nil {
		return err
	}
	pipeG, err := cimmlc.Model(pipeModel)
	if err != nil {
		return err
	}
	gateIn := seededInputs(e, 6, graphInputs(gateG), stagedInputs)
	pipeIn := seededInputs(e, 7, graphInputs(pipeG), stagedInputs)
	s, err := timeSetup(e, e.setupRepeats(5), func() (*stagedSetup, error) {
		return setupStaged(gateIn[0], pipeIn[0])
	}, (*stagedSetup).close)
	if err != nil {
		return err
	}
	defer s.close()

	// A directly built Pipeline is the in-process reference for the fleet's
	// outputs (replica builds are deterministic).
	pl, err := s.pipeReg.BuildPipeline(ctx, pipeModel, pipeArch, 0, cimmlc.WithWorkers(1))
	if err != nil {
		return err
	}
	rep, pst := s.gate.Result().Report, pl.Stats()
	pipeCycles := pst.TransferCycles
	for _, c := range pst.StageCycles {
		pipeCycles += c
	}
	e.set("model_cycles", geomean([]float64{rep.Cycles, pipeCycles}))
	// A Pipeline reports no energy or power; those cover conv-gate alone.
	e.set("model_energy", rep.Energy)
	e.set("model_peak_power", rep.PeakPower.Total())

	if err := s.gate.Verify(ctx, gateIn[0], verifyTol); err != nil {
		return mismatchf("%s: Verify: %v", gateModel, err)
	}
	if err := pl.Verify(ctx, pipeIn[0], verifyTol); err != nil {
		return mismatchf("%s: Verify: %v", pipeModel, err)
	}
	gateWant := make([]map[int]*cimmlc.Tensor, stagedInputs)
	pipeWant := make([]map[int]*cimmlc.Tensor, stagedInputs)
	for i := range gateWant {
		if gateWant[i], err = s.gate.Run(ctx, gateIn[i]); err != nil {
			return err
		}
		if pipeWant[i], err = pl.Run(ctx, pipeIn[i]); err != nil {
			return err
		}
	}

	var gateRun, pipeRun serving.Runner = s.batcher, s.fleet
	if e.traced {
		gateRun = &tracedRunner{Runner: s.batcher, tr: e.tr, name: "batcher.do"}
		pipeRun = &tracedRunner{Runner: s.fleet, tr: e.tr, name: "fleet.do"}
	}
	// Operation i sends model useGate[i%len] with input pick[i%len]. One
	// op in three goes to conv-gate, so the latency median falls inside the
	// mlp requests' spread and the 90th percentile inside conv-gate's,
	// never on the gap between the two.
	rng := e.rng(8)
	useGate, pick := make([]bool, 4096), make([]int, 4096)
	for i := range pick {
		useGate[i], pick[i] = rng.IntN(3) == 0, rng.IntN(stagedInputs)
	}
	var mu sync.Mutex
	var mismatch error
	op := func(i int) error {
		k := pick[i%len(pick)]
		run, in, want := pipeRun, pipeIn[k], pipeWant[k]
		if useGate[i%len(useGate)] {
			run, in, want = gateRun, gateIn[k], gateWant[k]
		}
		id := e.tr.begin("request", 0, int64(i))
		outs, err := run.Do(withSpan(ctx, id, int64(i)), in)
		e.tr.end(id)
		if err != nil {
			return err
		}
		if err := sameBits(outs, want); err != nil {
			mu.Lock()
			mismatch = cmp.Or(mismatch, err)
			mu.Unlock()
		}
		return nil
	}

	warm := closedLoop("warmup", nproc(), 500*time.Millisecond, op)
	e.addPhase(warm)
	mark := e.tr.mark()
	gc0 := readGC()
	b0 := s.batcher.Stats()
	phases := e.measure("staged", e.dur(), func(d time.Duration) *phase {
		return closedLoop("", nproc(), d, op)
	}, perOpCost)
	if mismatch != nil {
		return mismatch
	}
	ops := 0
	for _, ph := range phases {
		ops += ph.sent
	}
	if !e.traced {
		e.setLatency(phases, (*phase).wholeWindow)
		e.set("max_rate_rps", e.m["throughput_rps"])
		return nil
	}
	e.setGC(gc0, ops)
	b1 := s.batcher.Stats()
	batches := float64(b1.Batches - b0.Batches)
	e.set("batcher.mean_batch", ratio(float64(b1.Requests-b0.Requests), batches))
	e.set("batcher.deadline_flush_frac", ratio(float64(b1.DeadlineFlushes-b0.DeadlineFlushes), batches))
	e.set("batcher.isolation_fallbacks", float64(b1.IsolationFallbacks-b0.IsolationFallbacks))
	spans := e.tr.since(mark)
	do := byName(spans, "batcher.do", nil)
	e.set("batcher.do_ms_p50", percentile(do, 50))
	e.set("batcher.do_ms_p90", percentile(do, 90))
	e.set("fleet.do_ms", median(byName(spans, "fleet.do", nil)))
	ps := s.gate.Stats().Partition
	e.set("staged.host_cycles_share", ratio(ps.HostCycles, ps.CIMCycles+ps.HostCycles+ps.TransferCycles))

	// Probes off the request path: the partitioned Program and the Pipeline
	// run directly, and the Pipeline stage by stage through RunStage.
	e.tr.on.Store(true)
	defer e.tr.on.Store(false)
	mark = e.tr.mark()
	for i := 0; i < stagedInputs; i++ {
		id := e.tr.begin("staged.partitioned", 0, 0)
		_, err := s.gate.Run(ctx, gateIn[i])
		e.tr.end(id)
		if err != nil {
			return err
		}
		id = e.tr.begin("pipeline.run", 0, 0)
		_, err = pl.Run(ctx, pipeIn[i])
		e.tr.end(id)
		if err != nil {
			return err
		}
		env := map[int]*cimmlc.Tensor{}
		for k, t := range pipeIn[i] {
			env[k] = t
		}
		for st := 0; st < pl.Stages(); st++ {
			id = e.tr.begin(fmt.Sprintf("pipeline.stage%d", st), 0, 0)
			exports, err := pl.RunStage(ctx, st, env)
			e.tr.end(id)
			if err != nil {
				return err
			}
			for k, t := range exports {
				env[k] = t
			}
		}
	}
	spans = e.tr.since(mark)
	e.set("staged.partitioned_ms", median(byName(spans, "staged.partitioned", nil)))
	e.set("pipeline.run_ms", median(byName(spans, "pipeline.run", nil)))
	e.set("pipeline.stage0_ms", median(byName(spans, "pipeline.stage0", nil)))
	e.set("pipeline.stage1_ms", median(byName(spans, "pipeline.stage1", nil)))
	return nil
}
