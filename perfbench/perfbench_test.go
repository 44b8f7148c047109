package main

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"testing"
	"time"

	"cimmlc"
	"cimmlc/serving"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{10, 1}, {50, 5}, {51, 6}, {90, 9}, {91, 10}, {100, 10}, {0, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := above(xs, percentile(xs, 90)); got != 1 {
		t.Errorf("samples above p90 of 1..10 = %d, want 1", got)
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 100}, 10},
		{[]float64{2, 8}, 4},
		{[]float64{5}, 5},
		{[]float64{3, 0}, 0},
		{[]float64{3, -1}, 0},
		{nil, 0},
	} {
		if got := geomean(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("geomean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// A stalled request delays the next one past its due time: the delayed
// request is charged from when it was due, and its lateness is recorded.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 60 * time.Millisecond
	dues := []time.Duration{0, 10 * time.Millisecond}
	ph := openLoop("t", 1, dues, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if ph.sent != 2 || ph.ok != 2 || len(ph.late) != 2 {
		t.Fatalf("phase counted sent=%d ok=%d late=%d, want 2/2/2", ph.sent, ph.ok, len(ph.late))
	}
	// Both requests run on the one connection in order: the second was due
	// at 10ms but could only start after the 60ms stall.
	wantLate := float64(stall-dues[1]) / float64(time.Millisecond)
	if ph.late[0] > 5 {
		t.Errorf("first request %.2fms late, want ≈0", ph.late[0])
	}
	if ph.late[1] < wantLate {
		t.Errorf("second request %.2fms late, want ≥ %.2fms", ph.late[1], wantLate)
	}
	if ph.lat[1] < ph.late[1] {
		t.Errorf("second request latency %.2fms < its lateness %.2fms: not timed from due", ph.lat[1], ph.late[1])
	}
}

// The generator polls the clock over the last stretch before a due time:
// it never sends a request early.
func TestOpenLoopNeverEarly(t *testing.T) {
	dues := []time.Duration{2 * time.Millisecond, 3 * time.Millisecond, 7 * time.Millisecond, 20 * time.Millisecond}
	start := time.Now()
	sentAt := make([]time.Duration, len(dues))
	openLoop("t", 1, dues, func(i int) error {
		sentAt[i] = time.Since(start)
		return nil
	})
	for i, due := range dues {
		if sentAt[i] < due {
			t.Errorf("request %d sent at %v, before its due time %v", i, sentAt[i], due)
		}
	}
}

// windowStats pools the windows of several phases, asking the predicate
// about each phase's own windows.
func TestWindowStatsPoolsPhases(t *testing.T) {
	mk := func(lat float64) *phase {
		p := &phase{elapsed: 2 * window}
		for w := 0; w < 3; w++ { // window 2 lies past elapsed
			for k := 0; k < 10; k++ {
				at := time.Duration(w)*window + time.Duration(k+1)*window/20
				p.record(w, at, time.Duration(lat*float64(time.Millisecond)), 0, nil)
			}
		}
		return p
	}
	a, b := mk(1), mk(3)
	rps, p50, p90 := windowStats([]*phase{a, b}, (*phase).wholeWindow)
	if len(rps) != 4 || len(p50) != 4 || len(p90) != 4 {
		t.Fatalf("got %d/%d/%d windows, want 2 whole windows from each of 2 phases", len(rps), len(p50), len(p90))
	}
	if median(p50) != 1 || percentile(p50, 100) != 3 {
		t.Errorf("window p50s %v, want two of 1ms and two of 3ms", p50)
	}
	// 9 successes after each window's first completion, over 9/20 s.
	if math.Abs(rps[0]-20) > 1e-9 {
		t.Errorf("window throughput %v, want 20/s", rps[0])
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	ph := openLoop("t", 2, []time.Duration{0, 0, 0}, func(i int) error {
		if i == 1 {
			return errors.New("HTTP 503")
		}
		return nil
	})
	if ph.sent != 3 || ph.ok != 2 || ph.failed != 1 {
		t.Fatalf("sent=%d ok=%d failed=%d, want 3/2/1", ph.sent, ph.ok, ph.failed)
	}
	// The failure misses the latency limit: it sits above every success.
	if got := percentile(ph.lat, 100); got != float64(failLatency)/float64(time.Millisecond) {
		t.Errorf("slowest latency %.1fms, want the failure charge %v", got, failLatency)
	}
}

func TestArrivalsSeeded(t *testing.T) {
	e := &env{seed: 7}
	a, b := arrivals(100, time.Second, e.rng(1)), arrivals(100, time.Second, e.rng(1))
	if len(a) < 60 || len(a) > 140 {
		t.Fatalf("%d arrivals in 1s at 100/s", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs under the same seed", i)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // spills past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 35},
	}
	self := selfTimes(spans)
	// Covered: [10,60] and [90,100] — 60 of the parent's 100.
	for id, want := range map[int]int64{1: 40, 2: 10, 3: 30, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func outputs(t *testing.T, data ...float32) map[int]*cimmlc.Tensor {
	t.Helper()
	tt, err := cimmlc.TensorFromSlice(data, len(data))
	if err != nil {
		t.Fatal(err)
	}
	return map[int]*cimmlc.Tensor{3: tt}
}

func TestSameBitsRejectsPerturbedOutput(t *testing.T) {
	want := outputs(t, 1, 2, 3)
	if err := sameBits(outputs(t, 1, 2, 3), want); err != nil {
		t.Fatalf("identical outputs rejected: %v", err)
	}
	bumped := math.Float32frombits(math.Float32bits(2) + 1) // one ulp
	for name, got := range map[string]map[int]*cimmlc.Tensor{
		"one ulp":   outputs(t, 1, bumped, 3),
		"shape":     outputs(t, 1, 2),
		"missing":   {},
		"wrong key": {4: want[3]},
	} {
		if err := sameBits(got, want); !errors.Is(err, errMismatch) {
			t.Errorf("%s: got %v, want a mismatch", name, err)
		}
	}
}

func responseBody(t *testing.T, out map[int]*cimmlc.Tensor) []byte {
	t.Helper()
	resp := serving.RunResponse{Outputs: map[string]serving.JSONTensor{}}
	for id, tt := range out {
		resp.Outputs[strconv.Itoa(id)] = serving.JSONTensor{Shape: tt.Shape(), Data: tt.Data()}
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRespCheckerRejectsPerturbedResponse(t *testing.T) {
	want := []map[int]*cimmlc.Tensor{outputs(t, 0.5, -1.25)}
	c := newRespChecker()
	c.add(0, responseBody(t, outputs(t, 0.5, -1.25)))
	c.add(0, responseBody(t, outputs(t, 0.5, -1.25)))
	if err := c.verify(want); err != nil {
		t.Fatalf("faithful responses rejected: %v", err)
	}
	// A later response that differs from the first is kept and decoded.
	c.add(0, responseBody(t, outputs(t, 0.5, -1.2500001)))
	if err := c.verify(want); !errors.Is(err, errMismatch) {
		t.Fatalf("perturbed response: got %v, want a mismatch", err)
	}
}
