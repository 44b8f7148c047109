package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cimmlc"
	"cimmlc/serving"
)

// pathMetrics summarizes one serving path of the load generator.
type pathMetrics struct {
	WallNS        int64   `json:"wall_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50NS         int64   `json:"p50_ns"`
	P99NS         int64   `json:"p99_ns"`
}

// loadgenResult is the machine-readable load-generator report: the
// sequential per-request baseline versus the dynamic micro-batching queue.
type loadgenResult struct {
	Model             string               `json:"model"`
	Arch              string               `json:"arch"`
	Requests          int                  `json:"requests"`
	Clients           int                  `json:"clients"`
	MaxBatch          int                  `json:"max_batch"`
	Workers           int                  `json:"workers"`
	Baseline          pathMetrics          `json:"baseline"`
	Batched           pathMetrics          `json:"batched"`
	SpeedupX          float64              `json:"speedup_x"`
	BatchedGEBaseline bool                 `json:"batched_ge_baseline"`
	BitIdentical      bool                 `json:"bit_identical"`
	MeanBatch         float64              `json:"mean_batch"`
	BatcherStats      serving.BatcherStats `json:"batcher_stats"`
}

// runLoadgen builds one Program and pushes the same request stream through
// two paths: (a) the sequential per-request baseline — one Program.Run at a
// time, the pre-gateway serving model — and (b) a serving.Batcher fed by
// concurrent clients. It verifies the two paths produce bit-identical
// outputs (and the program against Program.Verify), then reports
// throughput and latency percentiles for both.
func runLoadgen(model, arch string, requests, clients, maxBatch int, jsonOut bool) error {
	if requests < 1 || clients < 1 || maxBatch < 1 {
		return fmt.Errorf("-loadgen-requests, -loadgen-clients and -loadgen-batch must be at least 1")
	}
	ctx := context.Background()
	g, err := cimmlc.Model(model)
	if err != nil {
		return err
	}
	a, err := cimmlc.Preset(arch)
	if err != nil {
		return err
	}
	c, err := cimmlc.New(a)
	if err != nil {
		return err
	}
	w := cimmlc.RandomWeights(g, 1)
	reqs := make([]map[int]*cimmlc.Tensor, requests)
	for i := range reqs {
		in := map[int]*cimmlc.Tensor{}
		for _, id := range g.InputIDs() {
			t := cimmlc.NewTensor(g.MustNode(id).OutShape...)
			t.Rand(uint64(i)*977+uint64(id)+3, 1)
			in[id] = t
		}
		reqs[i] = in
	}
	workers := runtime.GOMAXPROCS(0)
	p, err := c.Build(ctx, g, w, cimmlc.CodegenOptions{},
		cimmlc.WithCalibration(reqs[0]), cimmlc.WithWorkers(workers))
	if err != nil {
		return err
	}
	if err := p.Verify(ctx, reqs[0], 0.05); err != nil {
		return fmt.Errorf("program failed verification: %w", err)
	}
	// Warm both paths (state pool, caches, scheduler) before timing.
	warm := requests
	if warm > 16 {
		warm = 16
	}
	if _, err := p.RunBatch(ctx, reqs[:warm]); err != nil {
		return err
	}

	// Group commit fills batches toward MaxBatch from the clients' backlog,
	// and the partial batch at each round's tail runs at once.
	b := serving.NewBatcher(p, serving.BatcherConfig{MaxBatch: maxBatch})
	baseOuts := make([]map[int]*cimmlc.Tensor, requests)
	batchOuts := make([]map[int]*cimmlc.Tensor, requests)
	baseLat := make([]int64, requests)
	batchLat := make([]int64, requests)
	var baseWall, batchWall time.Duration

	// The two paths run in alternating rounds over the same request stream
	// so bursty host noise hits both measurements evenly instead of
	// whichever path happened to run during the burst; per-path throughput
	// is the median round's, which discards a burst that still lands
	// entirely inside one round. GC runs between rounds, not inside them.
	const rounds = 4
	gcPrev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPrev)
	baseRounds := make([]float64, 0, rounds)
	batchRounds := make([]float64, 0, rounds)
	for round := 0; round < rounds; round++ {
		lo := round * requests / rounds
		hi := (round + 1) * requests / rounds
		runtime.GC()

		// Path (a): sequential per-request baseline.
		baseStart := time.Now()
		for i := lo; i < hi; i++ {
			t0 := time.Now()
			out, err := p.Run(ctx, reqs[i])
			if err != nil {
				return fmt.Errorf("baseline request %d: %w", i, err)
			}
			baseLat[i] = time.Since(t0).Nanoseconds()
			baseOuts[i] = out
		}
		baseRound := time.Since(baseStart)
		baseWall += baseRound
		if hi > lo {
			baseRounds = append(baseRounds, float64(hi-lo)/baseRound.Seconds())
		}
		runtime.GC()

		// Path (b): dynamic micro-batching queue, concurrent clients.
		var next atomic.Int64
		next.Store(int64(lo))
		var firstErr atomic.Value
		var wg sync.WaitGroup
		batchStart := time.Now()
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					t0 := time.Now()
					out, err := b.Do(ctx, reqs[i])
					if err != nil {
						firstErr.CompareAndSwap(nil, fmt.Errorf("batched request %d: %w", i, err))
						return
					}
					batchLat[i] = time.Since(t0).Nanoseconds()
					batchOuts[i] = out
				}
			}()
		}
		wg.Wait()
		batchRound := time.Since(batchStart)
		batchWall += batchRound
		if hi > lo {
			batchRounds = append(batchRounds, float64(hi-lo)/batchRound.Seconds())
		}
		if err, ok := firstErr.Load().(error); ok && err != nil {
			return err
		}
	}
	b.Close()

	identical := true
	for i := range reqs {
		if !outputsEqual(baseOuts[i], batchOuts[i]) {
			identical = false
			break
		}
	}
	st := b.Stats()
	res := loadgenResult{
		Model:        g.Name,
		Arch:         a.Name,
		Requests:     requests,
		Clients:      clients,
		MaxBatch:     maxBatch,
		Workers:      workers,
		Baseline:     metricsFor(baseWall, baseLat, baseRounds),
		Batched:      metricsFor(batchWall, batchLat, batchRounds),
		BitIdentical: identical,
		BatcherStats: st,
	}
	res.SpeedupX, _ = pairedMedianSpeedup(baseRounds, batchRounds)
	res.BatchedGEBaseline = res.SpeedupX >= 1
	if st.Batches > 0 {
		res.MeanBatch = float64(st.Requests) / float64(st.Batches)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		fmt.Printf("loadgen: %s on %s, %d requests, %d clients, batch %d, %d workers\n",
			res.Model, res.Arch, requests, clients, maxBatch, workers)
		fmt.Printf("  baseline (sequential Run): %8.0f req/s  p50 %6.2fms  p99 %6.2fms\n",
			res.Baseline.ThroughputRPS, float64(res.Baseline.P50NS)/1e6, float64(res.Baseline.P99NS)/1e6)
		fmt.Printf("  micro-batched (queue):     %8.0f req/s  p50 %6.2fms  p99 %6.2fms\n",
			res.Batched.ThroughputRPS, float64(res.Batched.P50NS)/1e6, float64(res.Batched.P99NS)/1e6)
		fmt.Printf("  speedup %.2fx, mean batch %.1f, bit-identical %v\n", res.SpeedupX, res.MeanBatch, res.BitIdentical)
	}
	if !identical {
		return fmt.Errorf("micro-batched outputs diverge from the per-request baseline")
	}
	return nil
}

func outputsEqual(a, b map[int]*cimmlc.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for id, ta := range a {
		tb, ok := b[id]
		if !ok {
			return false
		}
		da, db := ta.Data(), tb.Data()
		if len(da) != len(db) {
			return false
		}
		for i := range da {
			if da[i] != db[i] {
				return false
			}
		}
	}
	return true
}
