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
	"cimmlc/serving/fleet"
)

// fleetResult is the machine-readable fleet load-generator report: the same
// request stream served by a 1-replica fleet versus an N-replica fleet.
type fleetResult struct {
	Model    string `json:"model"`
	Arch     string `json:"arch"`
	Requests int    `json:"requests"`
	Clients  int    `json:"clients"`
	MaxBatch int    `json:"max_batch"`
	// Replicas is the scaled fleet's size; the baseline always runs 1.
	Replicas int `json:"replicas"`
	// Procs is runtime.GOMAXPROCS — replica parallelism cannot beat it, so
	// the throughput gate only applies when Procs > 1.
	Procs        int         `json:"procs"`
	Single       pathMetrics `json:"single_replica"`
	Fleet        pathMetrics `json:"fleet"`
	SpeedupX     float64     `json:"speedup_x"`
	BitIdentical bool        `json:"bit_identical"`
	FleetState   fleet.State `json:"fleet_state"`
}

// runFleetgen pushes one request stream through a 1-replica fleet and an
// n-replica fleet in alternating rounds, verifies the two produce
// bit-identical outputs, and reports paired-median throughput. With
// gate set (CI), it exits non-zero when outputs diverge or — on a
// multicore host — when the n-replica fleet is slower than 1 replica.
func runFleetgen(model, arch string, requests, clients, maxBatch, replicas int, gate, jsonOut bool) error {
	if requests < 1 || clients < 1 || maxBatch < 1 || replicas < 2 {
		return fmt.Errorf("-loadgen-requests, -loadgen-clients and -loadgen-batch must be at least 1 and -fleet-replicas at least 2")
	}
	ctx := context.Background()
	g, err := cimmlc.Model(model)
	if err != nil {
		return err
	}
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

	// Both fleets build from the same registry, so they compile the same
	// deterministic programs; the comparison isolates routing + replica
	// parallelism. The batcher config matches -loadgen.
	reg := serving.NewRegistry()
	bcfg := serving.BatcherConfig{MaxBatch: maxBatch}
	newFleet := func(n int) (*fleet.Fleet, error) {
		return fleet.New(ctx, reg, fleet.Config{Model: model, Arch: arch, Replicas: n, Batcher: bcfg})
	}
	single, err := newFleet(1)
	if err != nil {
		return err
	}
	defer single.Close()
	scaled, err := newFleet(replicas)
	if err != nil {
		return err
	}
	defer scaled.Close()

	// Warm both fleets before timing.
	warm := requests
	if warm > 16 {
		warm = 16
	}
	for _, f := range []*fleet.Fleet{single, scaled} {
		for i := 0; i < warm; i++ {
			if _, err := f.Do(ctx, reqs[i]); err != nil {
				return err
			}
		}
	}

	drive := func(f *fleet.Fleet, lo, hi int, outs []map[int]*cimmlc.Tensor, lat []int64) (time.Duration, error) {
		var next atomic.Int64
		next.Store(int64(lo))
		var firstErr atomic.Value
		var wg sync.WaitGroup
		start := time.Now()
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
					out, err := f.Do(ctx, reqs[i])
					if err != nil {
						firstErr.CompareAndSwap(nil, fmt.Errorf("request %d: %w", i, err))
						return
					}
					lat[i] = time.Since(t0).Nanoseconds()
					outs[i] = out
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		if err, ok := firstErr.Load().(error); ok && err != nil {
			return 0, err
		}
		return wall, nil
	}

	singleOuts := make([]map[int]*cimmlc.Tensor, requests)
	fleetOuts := make([]map[int]*cimmlc.Tensor, requests)
	singleLat := make([]int64, requests)
	fleetLat := make([]int64, requests)
	var singleWall, fleetWall time.Duration

	// Alternating rounds with paired-median throughput, like -loadgen: host
	// noise hits both fleets evenly and a burst inside one round is
	// discarded by the median.
	const rounds = 4
	gcPrev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPrev)
	singleRounds := make([]float64, 0, rounds)
	fleetRounds := make([]float64, 0, rounds)
	for round := 0; round < rounds; round++ {
		lo := round * requests / rounds
		hi := (round + 1) * requests / rounds
		if hi <= lo {
			continue
		}
		runtime.GC()
		w, err := drive(single, lo, hi, singleOuts, singleLat)
		if err != nil {
			return fmt.Errorf("single-replica fleet: %w", err)
		}
		singleWall += w
		singleRounds = append(singleRounds, float64(hi-lo)/w.Seconds())
		runtime.GC()
		w, err = drive(scaled, lo, hi, fleetOuts, fleetLat)
		if err != nil {
			return fmt.Errorf("%d-replica fleet: %w", replicas, err)
		}
		fleetWall += w
		fleetRounds = append(fleetRounds, float64(hi-lo)/w.Seconds())
	}

	identical := true
	for i := range reqs {
		if !outputsEqual(singleOuts[i], fleetOuts[i]) {
			identical = false
			break
		}
	}
	res := fleetResult{
		Model:        g.Name,
		Arch:         arch,
		Requests:     requests,
		Clients:      clients,
		MaxBatch:     maxBatch,
		Replicas:     replicas,
		Procs:        runtime.GOMAXPROCS(0),
		Single:       metricsFor(singleWall, singleLat, singleRounds),
		Fleet:        metricsFor(fleetWall, fleetLat, fleetRounds),
		BitIdentical: identical,
		FleetState:   scaled.State(),
	}
	res.SpeedupX, _ = pairedMedianSpeedup(singleRounds, fleetRounds)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		fmt.Printf("fleet loadgen: %s on %s, %d requests, %d clients, batch %d, %d procs\n",
			res.Model, res.Arch, requests, clients, maxBatch, res.Procs)
		fmt.Printf("  1 replica:  %8.0f req/s  p50 %6.2fms  p99 %6.2fms\n",
			res.Single.ThroughputRPS, float64(res.Single.P50NS)/1e6, float64(res.Single.P99NS)/1e6)
		fmt.Printf("  %d replicas: %8.0f req/s  p50 %6.2fms  p99 %6.2fms\n",
			replicas, res.Fleet.ThroughputRPS, float64(res.Fleet.P50NS)/1e6, float64(res.Fleet.P99NS)/1e6)
		fmt.Printf("  speedup %.2fx, bit-identical %v\n", res.SpeedupX, res.BitIdentical)
	}
	if !identical {
		return fmt.Errorf("fleet outputs diverge between 1 and %d replicas", replicas)
	}
	// Replica parallelism needs cores to show up in wall-clock; on a
	// single-proc host the routing overhead makes the gate meaningless.
	if gate && res.Procs > 1 && res.SpeedupX < 1 {
		return fmt.Errorf("%d-replica fleet slower than 1 replica: %.2fx", replicas, res.SpeedupX)
	}
	return nil
}
