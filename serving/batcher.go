package serving

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cimmlc"
)

// ErrClosed is returned by Batcher.Do after Close has begun.
var ErrClosed = errors.New("serving: batcher closed")

// BatcherConfig tunes the dynamic micro-batching queue.
type BatcherConfig struct {
	// MaxBatch caps the requests one batch may hold (default 8).
	MaxBatch int
	// MaxDelay is ignored.
	//
	// Deprecated: the Batcher flushes by group commit and never waits for
	// a batch to fill, so there is no deadline to tune. The field remains
	// for source compatibility.
	MaxDelay time.Duration
	// Queue is the submit-buffer capacity (default 4×MaxBatch). When the
	// buffer is full, Do blocks — backpressure propagates to callers
	// instead of growing an unbounded queue.
	Queue int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.MaxBatch
	}
	return c
}

// BatcherStats counts the batcher's activity.
type BatcherStats struct {
	// Requests is the number of requests that entered a flush.
	Requests uint64 `json:"requests"`
	// Batches is the number of flushes; Requests/Batches is the mean
	// batch size actually achieved.
	Batches uint64 `json:"batches"`
	// SizeFlushes, IdleFlushes and DrainFlushes split Batches by trigger:
	// the backlog filled a batch to MaxBatch, the executor went idle with
	// a partial batch pending, or Close drained the pending requests.
	SizeFlushes uint64 `json:"size_flushes"`
	// DeadlineFlushes is always zero.
	//
	// Deprecated: the deadline trigger is gone. The field remains so
	// readers of the JSON snapshot keep working.
	DeadlineFlushes uint64 `json:"deadline_flushes"`
	IdleFlushes     uint64 `json:"idle_flushes"`
	DrainFlushes    uint64 `json:"drain_flushes"`
	// IsolationFallbacks counts batches that failed as a whole and were
	// re-run request-by-request to isolate the failing request.
	IsolationFallbacks uint64 `json:"isolation_fallbacks"`
}

// Batcher is a dynamic micro-batching queue in front of one Program. It
// batches by group commit: the loop waits for one request, tops the batch
// up with whatever else is already queued (up to MaxBatch) and runs it at
// once through Program.RunBatch's bounded worker pool. A lone request thus
// runs with no added queueing delay, while under load the backlog that
// builds up during one batch's execution forms the next batch. A failed
// batch falls back to per-request execution so one malformed request
// cannot fail its batch-mates.
//
// A Batcher is safe for concurrent use. Close drains pending requests.
type Batcher struct {
	p      *cimmlc.Program
	cfg    BatcherConfig
	submit chan *batchReq

	closed    atomic.Bool
	closing   chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	fallbackW sync.WaitGroup // isolation-fallback goroutines in flight

	requests  atomic.Uint64
	batches   atomic.Uint64
	sizeFl    atomic.Uint64
	idleFl    atomic.Uint64
	drainFl   atomic.Uint64
	fallbacks atomic.Uint64
}

type batchReq struct {
	ctx    context.Context
	inputs map[int]*cimmlc.Tensor
	reply  chan batchRes
}

type batchRes struct {
	outs map[int]*cimmlc.Tensor
	err  error
}

// NewBatcher starts the batching loop for p.
func NewBatcher(p *cimmlc.Program, cfg BatcherConfig) *Batcher {
	b := newBatcher(p, cfg)
	go b.loop()
	return b
}

// newBatcher builds a Batcher whose loop has not started yet.
func newBatcher(p *cimmlc.Program, cfg BatcherConfig) *Batcher {
	cfg = cfg.withDefaults()
	return &Batcher{
		p:       p,
		cfg:     cfg,
		submit:  make(chan *batchReq, cfg.Queue),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Do submits one inference request and blocks until its batch has executed
// (or ctx is done). It returns ErrClosed once Close has begun.
func (b *Batcher) Do(ctx context.Context, inputs map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if b.closed.Load() {
		return nil, ErrClosed
	}
	r := &batchReq{ctx: ctx, inputs: inputs, reply: make(chan batchRes, 1)}
	select {
	case b.submit <- r:
	case <-b.closing:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case res := <-r.reply:
		return res.outs, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-b.done:
		// The loop has exited. A send that raced Close may have landed
		// after the drain's final poll; the drain's replies are buffered
		// before done closes, so a missing reply means the request was
		// never seen.
		select {
		case res := <-r.reply:
			return res.outs, res.err
		default:
			return nil, ErrClosed
		}
	}
}

// Close stops accepting requests, flushes everything already queued, and
// waits for in-flight batches to finish. It is idempotent.
func (b *Batcher) Close() {
	b.stopAdmission()
	<-b.done
}

// stopAdmission makes Do return ErrClosed and tells the loop to drain.
func (b *Batcher) stopAdmission() {
	b.closeOnce.Do(func() {
		b.closed.Store(true)
		close(b.closing)
	})
}

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Requests:           b.requests.Load(),
		Batches:            b.batches.Load(),
		SizeFlushes:        b.sizeFl.Load(),
		IdleFlushes:        b.idleFl.Load(),
		DrainFlushes:       b.drainFl.Load(),
		IsolationFallbacks: b.fallbacks.Load(),
	}
}

// Program returns the program the batcher serves.
func (b *Batcher) Program() *cimmlc.Program { return b.p }

// Depth reports the number of requests queued but not yet claimed by the
// batching loop. The loop claims requests only when the executor is free,
// so this is the backlog that builds up while a batch executes — the
// signal fleet autoscalers act on.
func (b *Batcher) Depth() int { return len(b.submit) }

// Inputs reports the underlying program's input schema (node ID → shape).
func (b *Batcher) Inputs() map[int][]int { return b.p.Inputs() }

func (b *Batcher) loop() {
	// The done close must wait for detached isolation-fallback goroutines:
	// Do treats a closed done channel with no buffered reply as "request
	// never seen" (ErrClosed), so every reply must be in flight first.
	defer func() {
		b.fallbackW.Wait()
		close(b.done)
	}()
	for {
		var batch []*batchReq
		select {
		case r := <-b.submit:
			batch = b.topUp([]*batchReq{r})
		case <-b.closing:
		}
		select {
		case <-b.closing:
			// Drain: everything already queued still gets served. Full
			// batches are ordinary size flushes; only the final partial
			// batch is attributed to the drain.
			for batch = b.topUp(batch); len(batch) == b.cfg.MaxBatch; batch = b.topUp(nil) {
				b.runBatch(batch, &b.sizeFl)
			}
			b.runBatch(batch, &b.drainFl)
			return
		default:
		}
		if len(batch) == b.cfg.MaxBatch {
			b.runBatch(batch, &b.sizeFl)
		} else {
			b.runBatch(batch, &b.idleFl)
		}
	}
}

// topUp appends already-queued requests to batch, without waiting for
// more, until it holds MaxBatch.
func (b *Batcher) topUp(batch []*batchReq) []*batchReq {
	for len(batch) < b.cfg.MaxBatch {
		select {
		case r := <-b.submit:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// runBatch executes one flushed batch and credits its trigger; an empty
// batch is no flush. Requests whose context is already done are answered
// without running; the rest go through RunBatch, falling back to
// per-request Runs when the batch fails as a whole so errors stay isolated
// to the request that caused them.
func (b *Batcher) runBatch(reqs []*batchReq, trigger *atomic.Uint64) {
	if len(reqs) == 0 {
		return
	}
	trigger.Add(1)
	live := reqs[:0]
	for _, r := range reqs {
		if err := r.ctx.Err(); err != nil {
			r.reply <- batchRes{err: err}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	b.batches.Add(1)
	b.requests.Add(uint64(len(live)))

	inputs := make([]map[int]*cimmlc.Tensor, len(live))
	for i, r := range live {
		inputs[i] = r.inputs
	}
	// The batch runs under the background context: one caller's timeout
	// must not cancel its batch-mates.
	outs, err := b.p.RunBatch(context.Background(), inputs)
	if err == nil {
		for i, r := range live {
			r.reply <- batchRes{outs: outs[i]}
		}
		return
	}
	// Per-request error isolation: re-run individually so only the
	// offending request observes its error. The re-runs detach onto their
	// own goroutine — they execute serially per batch, and keeping them on
	// the batching loop would head-of-line block every later batch behind
	// one poisoned one.
	b.fallbacks.Add(1)
	b.fallbackW.Add(1)
	go func() {
		defer b.fallbackW.Done()
		for _, r := range live {
			o, rerr := b.p.Run(r.ctx, r.inputs)
			r.reply <- batchRes{outs: o, err: rerr}
		}
	}()
}
