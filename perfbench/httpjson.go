package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cimmlc"
	"cimmlc/serving"
)

// http-json: conv-relu on toy-table2 behind serving.Server on loopback
// HTTP, JSON tensor bodies both ways, driven open-loop at a fixed reference
// rate; then at saturation, for the highest rate served without a growing
// backlog. The JSON codec and the batcher deadline dominate a request here.

const (
	httpModel = "conv-relu"
	httpArch  = "toy-table2"
	// httpRefRate is the fixed reference arrival rate, about a quarter of
	// the capacity of two connections on a 2-core host: low enough that
	// queueing during a slow spell of a shared host does not swamp the tail.
	httpRefRate = 40.0
	// An untraced run alternates rounds of about httpRound: three quarters
	// at the reference rate, then the rest measuring the highest
	// sustainable rate. Spreading both phases over the whole run lets a
	// slow spell of a shared host move a minority of each phase's windows
	// instead of all of one phase.
	httpRound = 7 * time.Second
	// httpInputs distinct seeded request bodies are drawn into the stream.
	httpInputs = 16
)

// cimserve's serving defaults.
var (
	serveBatch   = serving.BatcherConfig{MaxBatch: 8, MaxDelay: 2 * time.Millisecond}
	serveTimeout = 30 * time.Second
)

// gateway is a serving.Server listening on a loopback port.
type gateway struct {
	srv    *serving.Server
	hs     *http.Server
	url    string
	served chan error
	// batcher is the (model, arch) queue when the benchmark built it
	// itself through a tracing RunnerFactory.
	batcher *serving.Batcher
}

// tracedRunner wraps a Runner with a span around Do, child of the span the
// request context carries.
type tracedRunner struct {
	serving.Runner
	tr   *tracer
	name string
}

func (r *tracedRunner) Do(ctx context.Context, in map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error) {
	ref := spanFrom(ctx)
	id := r.tr.begin(r.name, ref.id, ref.req)
	defer r.tr.end(id)
	return r.Runner.Do(ctx, in)
}

// startGateway builds a registry and gateway, listens on a loopback port
// and makes the (model, arch) runner resident. A traced run builds the
// same Batcher the default path would, behind a span-recording Runner, and
// wraps the handler in a request span.
func startGateway(e *env, calib map[int]*cimmlc.Tensor) (*gateway, error) {
	ctx := context.Background()
	reg := serving.NewRegistry(serving.WithHostFallback(), serving.WithWeightSeed(weightSeed),
		serving.WithBuildOptions(cimmlc.WithCalibration(calib)))
	gw := &gateway{served: make(chan error, 1)}
	cfg := serving.ServerConfig{Batch: serveBatch, RequestTimeout: serveTimeout}
	if e.traced {
		cfg.Runner = func(ctx context.Context, reg *serving.Registry, model, arch string) (serving.Runner, error) {
			p, err := reg.Get(ctx, model, arch)
			if err != nil {
				return nil, err
			}
			gw.batcher = serving.NewBatcher(p, serveBatch)
			return &tracedRunner{Runner: gw.batcher, tr: e.tr, name: "batcher.do"}, nil
		}
	}
	gw.srv = serving.NewServer(reg, cfg)
	handler := gw.srv.Handler()
	if e.traced {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req, _ := strconv.ParseInt(r.Header.Get("X-Request-ID"), 10, 64)
			id := e.tr.begin("http.request", 0, req)
			inner.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id, req)))
			e.tr.end(id)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.srv.Close()
		return nil, err
	}
	gw.hs = &http.Server{Handler: handler, ReadHeaderTimeout: serveTimeout}
	gw.url = "http://" + ln.Addr().String() + "/v1/run"
	go func() { gw.served <- gw.hs.Serve(ln) }()
	if _, err := gw.srv.Runner(ctx, httpModel, httpArch); err != nil {
		gw.close()
		return nil, err
	}
	if gw.batcher == nil {
		if gw.batcher, err = gw.srv.Batcher(ctx, httpModel, httpArch); err != nil {
			gw.close()
			return nil, err
		}
	}
	return gw, nil
}

// close stops the listener, drains the gateway and waits for Serve to
// return.
func (gw *gateway) close() {
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	_ = gw.hs.Shutdown(ctx) // a drain that outlives the timeout still closes below
	gw.srv.Close()
	<-gw.served
}

// respChecker makes every served response comparable to the in-process
// reference without decoding JSON inside the timed window: the first body
// for each input is kept and decoded afterwards, and every later body must
// equal it byte for byte or is itself kept for decoding.
type respChecker struct {
	mu      sync.Mutex
	first   map[int][]byte
	pending []keptBody // bodies not yet decoded and compared
}

type keptBody struct {
	input int
	body  []byte
}

func newRespChecker() *respChecker { return &respChecker{first: map[int][]byte{}} }

func (c *respChecker) add(input int, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.first[input]
	if ok && bytes.Equal(f, body) {
		return
	}
	k := keptBody{input, bytes.Clone(body)}
	if !ok {
		c.first[input] = k.body
	}
	c.pending = append(c.pending, k)
}

// verify decodes every pending body and compares it bit for bit with want.
func (c *respChecker) verify(want []map[int]*cimmlc.Tensor) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.pending
	c.pending = nil
	for _, k := range kept {
		got, err := decodeResponse(k.body)
		if err != nil {
			return mismatchf("input %d: %v", k.input, err)
		}
		if err := sameBits(got, want[k.input]); err != nil {
			return fmt.Errorf("served input %d: %w", k.input, err)
		}
	}
	return nil
}

func decodeResponse(body []byte) (map[int]*cimmlc.Tensor, error) {
	var resp serving.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	out := map[int]*cimmlc.Tensor{}
	for k, jt := range resp.Outputs {
		id, err := strconv.Atoi(k)
		if err != nil {
			return nil, err
		}
		if out[id], err = cimmlc.TensorFromSlice(jt.Data, jt.Shape...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func encodeRequest(in map[int]*cimmlc.Tensor) ([]byte, error) {
	req := serving.RunRequest{Model: httpModel, Arch: httpArch, Inputs: map[string]serving.JSONTensor{}}
	for id, t := range in {
		req.Inputs[strconv.Itoa(id)] = serving.JSONTensor{Shape: t.Shape(), Data: t.Data()}
	}
	return json.Marshal(req)
}

// httpClient sends pre-encoded request bodies over at most nproc
// keep-alive connections and hands each response body to the checker.
type httpClient struct {
	c      *http.Client
	url    string
	bodies [][]byte
	check  *respChecker
	bufs   sync.Pool
}

func newHTTPClient(url string, bodies [][]byte, check *respChecker) *httpClient {
	t := &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc(), DisableCompression: true}
	return &httpClient{
		c: &http.Client{Transport: t, Timeout: serveTimeout}, url: url, bodies: bodies, check: check,
		bufs: sync.Pool{New: func() any { return new(bytes.Buffer) }},
	}
}

func (h *httpClient) send(input int, reqID int64) error {
	req, err := http.NewRequest(http.MethodPost, h.url, bytes.NewReader(h.bodies[input]))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", strconv.FormatInt(reqID, 10))
	resp, err := h.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := h.bufs.Get().(*bytes.Buffer)
	defer h.bufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	h.check.add(input, buf.Bytes())
	return nil
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

func runHTTPJSON(e *env) error {
	ctx := context.Background()
	g, err := cimmlc.Model(httpModel)
	if err != nil {
		return err
	}
	inputs := seededInputs(e, 4, graphInputs(g), httpInputs)
	gw, err := timeSetup(e, e.setupRepeats(20), func() (*gateway, error) {
		return startGateway(e, inputs[0])
	}, (*gateway).close)
	if err != nil {
		return err
	}
	defer gw.close()
	p := gw.batcher.Program()
	rep := p.Result().Report
	e.set("model_cycles", rep.Cycles)
	e.set("model_energy", rep.Energy)
	e.set("model_peak_power", rep.PeakPower.Total())

	// Correctness references, outside timing: the program tracks the float
	// reference on its calibration input, and every served output must be
	// bit-identical to an in-process Run of the same request.
	if err := p.Verify(ctx, inputs[0], verifyTol); err != nil {
		return mismatchf("%s: Verify: %v", httpModel, err)
	}
	want := make([]map[int]*cimmlc.Tensor, len(inputs))
	bodies := make([][]byte, len(inputs))
	for i, in := range inputs {
		if want[i], err = p.Run(ctx, in); err != nil {
			return err
		}
		if bodies[i], err = encodeRequest(in); err != nil {
			return err
		}
	}
	check := newRespChecker()
	client := newHTTPClient(gw.url, bodies, check)
	defer client.close()

	// Request i of every phase carries seeded input pick[i%len].
	rng := e.rng(5)
	pick := make([]int, 4096)
	for i := range pick {
		pick[i] = rng.IntN(len(inputs))
	}
	var reqID atomic.Int64

	send := func(i int) error { return client.send(pick[i%len(pick)], reqID.Add(1)) }
	atRate := func(name string, rate float64, d time.Duration) (*phase, error) {
		ph := openLoop(name, nproc(), arrivals(rate, d, rng), send)
		// The schedule covers d, so its last window counts as whole even
		// when the last request completes just before d.
		ph.elapsed = max(ph.elapsed, d)
		return ph, check.verify(want)
	}

	warm, err := atRate("warmup", httpRefRate, 2*time.Second)
	if err != nil {
		return err
	}
	e.addPhase(warm)

	if !e.traced {
		rounds := max(1, int(e.dur()/httpRound))
		round := e.dur() / time.Duration(rounds)
		capD := max(time.Second, (round / 4).Round(time.Second))
		var fixed, capacity []*phase
		for r := 0; r < rounds; r++ {
			ph, err := atRate("fixed-rate", httpRefRate, round-capD)
			if err != nil {
				return err
			}
			e.addPhase(ph)
			fixed = append(fixed, ph)
			// The highest rate served without a growing backlog is the
			// rate nproc connections complete requests at when each sends
			// its next request as soon as the previous one returns.
			ph = closedLoop("capacity", nproc(), capD, send)
			e.addPhase(ph)
			if err := check.verify(want); err != nil {
				return err
			}
			capacity = append(capacity, ph)
		}
		printLateness(fixed)
		e.setLatency(fixed, (*phase).wholeWindow)
		rps, _, _ := windowStats(capacity, (*phase).wholeWindow)
		e.set("max_rate_rps", median(rps))
		return nil
	}

	mark := e.tr.mark()
	gc0 := readGC()
	b0 := gw.batcher.Stats()
	var verr error
	phases := e.measure("fixed-rate", e.dur(), func(d time.Duration) *phase {
		ph, err := atRate("", httpRefRate, d)
		verr = errors.Join(verr, err)
		return ph
	}, func(ph *phase) float64 { return percentile(ph.lat, 50) })
	if verr != nil {
		return verr
	}
	ops := 0
	for _, ph := range phases {
		ops += ph.sent
	}
	late := printLateness(phases)

	e.setGC(gc0, ops)
	b1 := gw.batcher.Stats()
	batches := float64(b1.Batches - b0.Batches)
	e.set("batcher.mean_batch", ratio(float64(b1.Requests-b0.Requests), batches))
	e.set("batcher.deadline_flush_frac", ratio(float64(b1.DeadlineFlushes-b0.DeadlineFlushes), batches))
	e.set("batcher.isolation_fallbacks", float64(b1.IsolationFallbacks-b0.IsolationFallbacks))
	e.set("loadgen.late_p90_ms", late)
	spans := e.tr.since(mark)
	do := byName(spans, "batcher.do", nil)
	e.set("batcher.do_ms_p50", percentile(do, 50))
	e.set("batcher.do_ms_p90", percentile(do, 90))
	e.set("http.outside_do_ms", median(byName(spans, "http.request", selfTimes(spans))))

	// Probes off the request path: the JSON codec on this workload's bodies
	// and 1-lane Run on the same inputs.
	e.tr.on.Store(true)
	defer e.tr.on.Store(false)
	mark = e.tr.mark()
	reqBytes, respBytes := 0, 0
	for i, in := range inputs {
		id := e.tr.begin("json.decode", 0, 0)
		var req serving.RunRequest
		err := json.Unmarshal(bodies[i], &req)
		e.tr.end(id)
		if err != nil {
			return err
		}
		resp := serving.RunResponse{Model: httpModel, Arch: httpArch, Outputs: map[string]serving.JSONTensor{}}
		for nid, t := range want[i] {
			resp.Outputs[strconv.Itoa(nid)] = serving.JSONTensor{Shape: t.Shape(), Data: t.Data()}
		}
		var buf bytes.Buffer
		id = e.tr.begin("json.encode", 0, 0)
		err = json.NewEncoder(&buf).Encode(resp)
		e.tr.end(id)
		if err != nil {
			return err
		}
		reqBytes += len(bodies[i])
		respBytes += buf.Len()
		id = e.tr.begin("program.run", 0, 0)
		_, err = p.Run(ctx, in)
		e.tr.end(id)
		if err != nil {
			return err
		}
	}
	spans = e.tr.since(mark)
	e.set("http.json_decode_ms", median(byName(spans, "json.decode", nil)))
	e.set("http.json_encode_ms", median(byName(spans, "json.encode", nil)))
	e.set("http.req_bytes", float64(reqBytes)/float64(len(inputs)))
	e.set("http.resp_bytes", float64(respBytes)/float64(len(inputs)))
	e.set("program.run_us", median(byName(spans, "program.run", nil))*1000)
	return nil
}

// printLateness prints and returns the 90th percentile of how late the
// generator sent the requests of open-loop phases.
func printLateness(phases []*phase) float64 {
	var late []float64
	for _, ph := range phases {
		late = append(late, ph.late...)
	}
	p90 := percentile(late, 90)
	fmt.Printf(`{"loadgen":{"late_p90_ms":%.4f}}`+"\n", p90)
	return p90
}
