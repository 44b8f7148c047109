package serving

import (
	"context"
	"sync"
	"testing"
	"time"

	"cimmlc"
)

var (
	testProgOnce sync.Once
	testProg     *cimmlc.Program
	testProgErr  error
)

// testProgram builds one conv-relu/toy-table2 Program shared by the tests
// in this package; building it is the expensive part of every test.
func testProgram(t *testing.T) *cimmlc.Program {
	t.Helper()
	testProgOnce.Do(func() {
		g, err := cimmlc.Model("conv-relu")
		if err != nil {
			testProgErr = err
			return
		}
		a, err := cimmlc.Preset("toy-table2")
		if err != nil {
			testProgErr = err
			return
		}
		c, err := cimmlc.New(a)
		if err != nil {
			testProgErr = err
			return
		}
		testProg, testProgErr = c.Build(context.Background(), g, cimmlc.RandomWeights(g, 42), cimmlc.CodegenOptions{})
	})
	if testProgErr != nil {
		t.Fatal(testProgErr)
	}
	return testProg
}

// testInput returns a fresh valid request for the conv-relu program.
func testInput(seed uint64) map[int]*cimmlc.Tensor {
	in := cimmlc.NewTensor(3, 32, 32)
	in.Rand(seed+1, 1)
	return map[int]*cimmlc.Tensor{0: in}
}

// submitN fires n Do calls concurrently and returns their results.
func submitN(t *testing.T, b *Batcher, n int, inputs func(i int) map[int]*cimmlc.Tensor) []batchRes {
	t.Helper()
	results := make([]batchRes, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs, err := b.Do(context.Background(), inputs(i))
			results[i] = batchRes{outs: outs, err: err}
		}(i)
	}
	wg.Wait()
	return results
}

// runQueued queues n requests (request i carries inputs(i)) on a batcher
// whose loop has not started, and only then starts the loop, so the first
// batch holds min(n, MaxBatch) requests however the goroutines are scheduled.
// With drain set, the batcher stops admission before the loop starts, so
// the drain path serves the whole backlog; every reply must then be
// buffered by the time the loop exits. It returns the batcher (closed on
// cleanup) and each request's result in queue order.
func runQueued(t *testing.T, p *cimmlc.Program, cfg BatcherConfig, drain bool, inputs func(i int) map[int]*cimmlc.Tensor, n int) (*Batcher, []batchRes) {
	t.Helper()
	b := newBatcher(p, cfg)
	t.Cleanup(b.Close)
	if n > b.cfg.Queue {
		t.Fatalf("%d requests do not fit a queue of %d", n, b.cfg.Queue)
	}
	reqs := make([]*batchReq, n)
	for i := range reqs {
		reqs[i] = &batchReq{ctx: context.Background(), inputs: inputs(i), reply: make(chan batchRes, 1)}
		b.submit <- reqs[i]
	}
	if drain {
		b.stopAdmission()
	}
	go b.loop()
	if drain {
		<-b.done
	}
	results := make([]batchRes, n)
	for i, r := range reqs {
		if drain && len(r.reply) == 0 {
			t.Fatalf("request %d dropped during drain", i)
		}
		results[i] = <-r.reply
	}
	return b, results
}

func TestBatcherTriggers(t *testing.T) {
	p := testProgram(t)
	cases := []struct {
		name    string
		n       int
		trigger func(BatcherStats) uint64
	}{
		// The backlog fills a whole batch.
		{"flush on size", 4, func(s BatcherStats) uint64 { return s.SizeFlushes }},
		// The backlog runs out first: the partial batch runs at once.
		{"flush on idle", 3, func(s BatcherStats) uint64 { return s.IdleFlushes }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, results := runQueued(t, p, BatcherConfig{MaxBatch: 4}, false,
				func(i int) map[int]*cimmlc.Tensor { return testInput(uint64(i)) }, tc.n)
			for i, r := range results {
				if r.err != nil {
					t.Fatalf("request %d: %v", i, r.err)
				}
				if len(r.outs) == 0 {
					t.Fatalf("request %d: no outputs", i)
				}
			}
			st := b.Stats()
			if st.Requests != uint64(tc.n) {
				t.Fatalf("stats count %d requests, want %d", st.Requests, tc.n)
			}
			if st.Batches != 1 || tc.trigger(st) != 1 {
				t.Fatalf("want the backlog served as one batch by the expected trigger: %+v", st)
			}
		})
	}
}

// TestBatcherWorkConserving pins the group-commit policy: a lone request
// runs the moment the executor is idle, and a burst is served through
// size and idle flushes only.
func TestBatcherWorkConserving(t *testing.T) {
	p := testProgram(t)
	b := NewBatcher(p, BatcherConfig{MaxBatch: 8})
	defer b.Close()
	start := time.Now()
	if _, err := b.Do(context.Background(), testInput(1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("lone request took %v; idle flush did not fire", d)
	}
	if st := b.Stats(); st.IdleFlushes == 0 {
		t.Fatalf("expected an idle flush: %+v", st)
	}
	results := submitN(t, b, 16, func(i int) map[int]*cimmlc.Tensor { return testInput(uint64(i)) })
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
	}
	st := b.Stats()
	if st.Requests != 17 {
		t.Fatalf("served %d requests, want 17", st.Requests)
	}
	if st.SizeFlushes+st.IdleFlushes != st.Batches {
		t.Fatalf("flush triggers do not add up: %+v", st)
	}
}

func TestBatcherShutdownDrainsPending(t *testing.T) {
	p := testProgram(t)
	// The requests are queued when Close begins: the drain serves them.
	const n = 3
	b, results := runQueued(t, p, BatcherConfig{MaxBatch: 1000}, true,
		func(i int) map[int]*cimmlc.Tensor { return testInput(uint64(i)) }, n)
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("drained request %d: %v", i, r.err)
		}
	}
	st := b.Stats()
	if st.DrainFlushes == 0 {
		t.Fatalf("expected a drain flush: %+v", st)
	}
	if st.Requests != n {
		t.Fatalf("drained %d requests, want %d", st.Requests, n)
	}
	if _, err := b.Do(context.Background(), testInput(9)); err != ErrClosed {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
}

func TestBatcherPerRequestErrorIsolation(t *testing.T) {
	p := testProgram(t)
	// Request 2 is malformed (wrong input shape): it must fail alone while
	// its three batch-mates succeed.
	b, results := runQueued(t, p, BatcherConfig{MaxBatch: 4}, false, func(i int) map[int]*cimmlc.Tensor {
		if i == 2 {
			bad := cimmlc.NewTensor(1, 2, 2)
			return map[int]*cimmlc.Tensor{0: bad}
		}
		return testInput(uint64(i))
	}, 4)
	for i, r := range results {
		if i == 2 {
			if r.err == nil {
				t.Fatal("malformed request 2 did not fail")
			}
			continue
		}
		if r.err != nil {
			t.Fatalf("request %d failed alongside the malformed one: %v", i, r.err)
		}
	}
	if st := b.Stats(); st.IsolationFallbacks == 0 {
		t.Fatalf("expected an isolation fallback: %+v", st)
	}
}

func TestBatcherCancelledRequestSkipped(t *testing.T) {
	p := testProgram(t)
	b := NewBatcher(p, BatcherConfig{MaxBatch: 1000})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Do(ctx, testInput(1)); err != context.Canceled {
		t.Fatalf("Do with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestBatcherBitIdenticalToDirectRun(t *testing.T) {
	p := testProgram(t)
	b := NewBatcher(p, BatcherConfig{MaxBatch: 4})
	defer b.Close()
	const n = 8
	results := submitN(t, b, n, func(i int) map[int]*cimmlc.Tensor { return testInput(uint64(i)) })
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		want, err := p.Run(context.Background(), testInput(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		for id, wt := range want {
			gt, ok := r.outs[id]
			if !ok {
				t.Fatalf("request %d missing output node %d", i, id)
			}
			wd, gd := wt.Data(), gt.Data()
			if len(wd) != len(gd) {
				t.Fatalf("request %d node %d: length %d vs %d", i, id, len(gd), len(wd))
			}
			for j := range wd {
				if wd[j] != gd[j] {
					t.Fatalf("request %d node %d element %d: batched %v != direct %v", i, id, j, gd[j], wd[j])
				}
			}
		}
	}
}

// TestBatcherEngagesBatchedKernels pins the Batcher→RunBatch handoff to the
// batched kernel path: with a single-worker program, a full flush forms one
// micro-batch, so the program's batched counters must cover every request —
// and the outputs must still match direct Runs bit-for-bit. The requests are
// queued before the loop starts, so they form that one full batch.
func TestBatcherEngagesBatchedKernels(t *testing.T) {
	g, err := cimmlc.Model("conv-relu")
	if err != nil {
		t.Fatal(err)
	}
	a, err := cimmlc.Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cimmlc.New(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Build(context.Background(), g, cimmlc.RandomWeights(g, 43), cimmlc.CodegenOptions{}, cimmlc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	_, results := runQueued(t, p, BatcherConfig{MaxBatch: 4}, false,
		func(i int) map[int]*cimmlc.Tensor { return testInput(uint64(100 + i)) }, n)
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		want, err := p.Run(context.Background(), testInput(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		for id, wt := range want {
			gt := r.outs[id]
			if gt == nil {
				t.Fatalf("request %d missing output node %d", i, id)
			}
			wd, gd := wt.Data(), gt.Data()
			for j := range wd {
				if wd[j] != gd[j] {
					t.Fatalf("request %d node %d element %d: batched %v != direct %v", i, id, j, gd[j], wd[j])
				}
			}
		}
	}
	if st := p.Stats(); st.BatchedRequests < n {
		t.Fatalf("BatchedRequests = %d, want at least %d (batched path did not engage)", st.BatchedRequests, n)
	}
}
