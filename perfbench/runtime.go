package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// memSampler tracks the memory the Go runtime holds from the OS: all
// mapped memory minus heap memory already released back to it, sampled
// every few milliseconds for the whole run. It keeps the peak of each
// one-second window.
type memSampler struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peaks []uint64 // per window
}

func startMemSampler() *memSampler {
	m := &memSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

var memSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func (m *memSampler) sample() {
	s := append([]metrics.Sample(nil), memSamples...)
	metrics.Read(s)
	held := s[0].Value.Uint64() - s[1].Value.Uint64()
	w := windowOf(m.start)
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.peaks) <= w {
		m.peaks = append(m.peaks, 0)
	}
	m.peaks[w] = max(m.peaks[w], held)
}

// finish stops sampling and returns the median over the run's windows of
// each window's peak, in MiB: the memory a run typically peaks at, which
// one collection landing early or late does not move.
func (m *memSampler) finish() float64 {
	close(m.stop)
	<-m.done
	m.sample()
	m.mu.Lock()
	defer m.mu.Unlock()
	mib := make([]float64, len(m.peaks))
	for i, p := range m.peaks {
		mib[i] = float64(p) / (1 << 20)
	}
	if line, err := json.Marshal(map[string]any{"mem_window_peaks_mb": mib}); err == nil {
		fmt.Println(string(line))
	}
	return median(mib)
}

// gcCounters snapshots cumulative heap allocation and GC cycles, so a phase
// can report allocation and collections per operation.
type gcCounters struct{ allocBytes, cycles uint64 }

func readGC() gcCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return gcCounters{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// perOp returns KiB allocated per op and GC cycles per thousand ops between
// two snapshots.
func (a gcCounters) perOp(b gcCounters, ops int) (kbPerOp, gcPerKop float64) {
	if ops <= 0 {
		return 0, 0
	}
	return float64(b.allocBytes-a.allocBytes) / 1024 / float64(ops),
		float64(b.cycles-a.cycles) * 1000 / float64(ops)
}

// hostRecord is printed with every result so a run under the wrong
// configuration is visible: the CPU count and GOMAXPROCS, the Go version,
// the serving defaults the workloads use, and whether the compiler's IR
// verifier is on by default in this binary (it must not be: it is on only
// under go test).
type hostRecord struct {
	Workload   string        `json:"workload"`
	Seed       uint64        `json:"seed"`
	Seconds    int           `json:"seconds"`
	Trace      bool          `json:"trace"`
	NumCPU     int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	GoVersion  string        `json:"go_version"`
	Batcher    batcherRecord `json:"batcher"`
	VerifyIR   bool          `json:"verify_ir"`
}

type batcherRecord struct {
	MaxBatch     int     `json:"max_batch"`
	MaxDelayMS   float64 `json:"max_delay_ms"`
	HostFallback bool    `json:"host_fallback"`
	TimeoutS     float64 `json:"timeout_s"`
}

func newHostRecord(workload string, seed uint64, seconds int, trace, verifyIR bool) hostRecord {
	return hostRecord{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Batcher: batcherRecord{
			MaxBatch:     serveBatch.MaxBatch,
			MaxDelayMS:   float64(serveBatch.MaxDelay) / float64(time.Millisecond),
			HostFallback: true,
			TimeoutS:     serveTimeout.Seconds(),
		},
		VerifyIR: verifyIR,
	}
}
