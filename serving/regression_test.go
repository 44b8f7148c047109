package serving

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cimmlc"
)

// TestRegisterArchInvalidatesResidentPrograms is the regression for the
// stale-Program bug: re-registering an architecture (same name, new
// geometry) must invalidate the resident Programs built against the old
// description, so the next Get rebuilds instead of serving stale crossbar
// images. Before the fix, RegisterArch only swapped the compiler and the
// cached Program kept serving forever.
func TestRegisterArchInvalidatesResidentPrograms(t *testing.T) {
	ctx := context.Background()
	r := NewRegistry()

	// Build against the preset first — registering a shadowing arch must
	// also invalidate programs that resolved through the preset path.
	p1, err := r.Get(ctx, "conv-relu", "toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Builds(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
	st1 := p1.Result().Report

	// Shadow the preset under the same name with a different core grid.
	a, err := cimmlc.Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	a.Chip.CoreRows *= 2
	if err := r.RegisterArch(a); err != nil {
		t.Fatal(err)
	}
	if v := r.ArchVersion("TOY-TABLE2"); v != 1 {
		t.Fatalf("ArchVersion = %d after one registration, want 1 (case-insensitive)", v)
	}

	p2, err := r.Get(ctx, "conv-relu", "toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Fatal("Get after RegisterArch served the stale Program")
	}
	if got := r.Builds(); got != 2 {
		t.Fatalf("builds = %d after re-registration, want 2 (rebuild)", got)
	}
	if p2.Arch().Chip.CoreRows != a.Chip.CoreRows {
		t.Fatalf("rebuilt Program has core rows %d, want the re-registered %d",
			p2.Arch().Chip.CoreRows, a.Chip.CoreRows)
	}
	st2 := p2.Result().Report
	if st1.Cycles == st2.Cycles && st1.PeakPower == st2.PeakPower {
		t.Fatal("rebuilt Program's report is identical to the stale one; geometry change had no effect")
	}

	// Programs for other architectures survive the registration untouched.
	q1, err := r.Get(ctx, "conv-relu", "jia-isscc21")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterArch(a); err != nil { // re-register toy-table2 again
		t.Fatal(err)
	}
	if v := r.ArchVersion("toy-table2"); v != 2 {
		t.Fatalf("ArchVersion = %d after two registrations, want 2", v)
	}
	q2, err := r.Get(ctx, "conv-relu", "jia-isscc21")
	if err != nil {
		t.Fatal(err)
	}
	if q2 != q1 {
		t.Fatal("re-registering toy-table2 evicted the jia-isscc21 Program")
	}
}

// TestArchsKeepsDisplayCasing is the regression for the lowercasing bug:
// Archs must return canonical display casing — the name an arch was
// registered or defined with — while lookups stay case-insensitive.
func TestArchsKeepsDisplayCasing(t *testing.T) {
	r := NewRegistry()
	a, err := cimmlc.Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "Lab-ArchV2"
	if err := r.RegisterArch(a); err != nil {
		t.Fatal(err)
	}
	names := r.Archs()
	if !slices.Contains(names, "Lab-ArchV2") {
		t.Fatalf("Archs() = %v, want the registered display casing Lab-ArchV2", names)
	}
	for _, n := range names {
		if n == "lab-archv2" {
			t.Fatalf("Archs() lowercased the registered name: %v", names)
		}
	}
	// Presets keep their canonical names and are not duplicated by a
	// same-name registration.
	for _, p := range cimmlc.Presets() {
		if !slices.Contains(names, p) {
			t.Fatalf("Archs() = %v, missing preset %q", names, p)
		}
	}
	if err := r.RegisterArch(a); err != nil { // same name, listed once
		t.Fatal(err)
	}
	count := 0
	for _, n := range r.Archs() {
		if strings.EqualFold(n, "lab-archv2") {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("registered arch listed %d times, want 1", count)
	}
	// Lookups stay case-insensitive.
	if _, err := r.Get(context.Background(), "conv-relu", "LAB-ARCHV2"); err != nil {
		t.Fatalf("case-insensitive Get on registered arch: %v", err)
	}
}

// TestBatcherDrainAttributesSizeFlushes is the regression for the drain-stat
// bug: full batches flushed while Close drains the queue are ordinary
// size-triggered flushes; only the final partial flush belongs to
// DrainFlushes. The queue is pre-filled and admission stopped before the
// loop starts, so the drain path handles the backlog regardless of select
// ordering.
func TestBatcherDrainAttributesSizeFlushes(t *testing.T) {
	p := testProgram(t)
	for iter := 0; iter < 5; iter++ {
		const n = 5 // two full batches + one partial
		b, results := runQueued(t, p, BatcherConfig{MaxBatch: 2}, true,
			func(i int) map[int]*cimmlc.Tensor { return testInput(uint64(i)) }, n)
		for i, r := range results {
			if r.err != nil {
				t.Fatalf("iter %d: drained request %d: %v", iter, i, r.err)
			}
		}
		st := b.Stats()
		if st.SizeFlushes != 2 || st.DrainFlushes != 1 {
			t.Fatalf("iter %d: size=%d drain=%d, want size=2 drain=1 (full batches are size flushes even while draining)",
				iter, st.SizeFlushes, st.DrainFlushes)
		}
		if st.Batches != 3 || st.Requests != n {
			t.Fatalf("iter %d: batches=%d requests=%d, want 3/%d", iter, st.Batches, st.Requests, n)
		}
	}
}

// TestServerLoneRequestIgnoresMaxDelay is the regression for the deadline
// flush policy, under which the Batcher held every lone request for
// MaxDelay while the executor sat idle. MaxDelay is now ignored, so even an
// hour-long setting must not delay a lone /v1/run: it runs by an idle flush.
func TestServerLoneRequestIgnoresMaxDelay(t *testing.T) {
	s := NewServer(NewRegistry(), ServerConfig{Batch: BatcherConfig{MaxBatch: 8, MaxDelay: time.Hour}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	// Build the Program first so the bound below times only the request.
	b, err := s.Batcher(context.Background(), "conv-relu", "toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"model":"conv-relu","arch":"toy-table2","seed":1}`))
	if err != nil {
		t.Fatalf("lone /v1/run did not finish within the client's 5s bound: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run = %d, want 200", resp.StatusCode)
	}
	st := b.Stats()
	if st.IdleFlushes < 1 || st.DeadlineFlushes != 0 {
		t.Fatalf("want an idle flush and no deadline flush: %+v", st)
	}
}

// TestBatcherFallbackRepliesSurviveClose pins the detached isolation
// fallback: a poisoned batch's per-request re-runs now execute off the
// batching loop, and Close must still wait for their replies — no request
// may observe ErrClosed after it was admitted.
func TestBatcherFallbackRepliesSurviveClose(t *testing.T) {
	p := testProgram(t)
	b := NewBatcher(p, BatcherConfig{MaxBatch: 2})
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	outs := make([]map[int]*cimmlc.Tensor, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := testInput(uint64(i))
			if i%2 == 1 {
				in = map[int]*cimmlc.Tensor{0: cimmlc.NewTensor(1, 2, 2)} // malformed
			}
			outs[i], errs[i] = b.Do(context.Background(), in)
		}(i)
	}
	wg.Wait()
	b.Close()
	for i := 0; i < n; i++ {
		if i%2 == 1 {
			if errs[i] == nil {
				t.Fatalf("malformed request %d did not fail", i)
			}
			if errs[i] == ErrClosed {
				t.Fatalf("request %d lost its fallback reply to Close", i)
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("good request %d: %v", i, errs[i])
		}
		if len(outs[i]) == 0 {
			t.Fatalf("good request %d: no outputs", i)
		}
	}
	if st := b.Stats(); st.IsolationFallbacks == 0 {
		t.Fatalf("expected isolation fallbacks: %+v", st)
	}
}
