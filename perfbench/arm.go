package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/buffer"
	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/lockmgr"
	"dora/internal/wal"
	"dora/internal/workload"
	"dora/internal/workload/tm1"
	"dora/internal/workload/tpcc"
)

// Load shared by every workload: two closed-loop clients (one per core of the
// 2-core sizing host) and four DORA executors per table.
const (
	clients           = 2
	executorsPerTable = 4
	tm1Subscribers    = 20000
	tpccWarehouses    = 4
	// flushDelay is the modeled per-flush device latency of the synced log.
	flushDelay = time.Millisecond
	// warmup is the traffic a run sends before its measured window opens.
	warmup = time.Second
	// segmentSize keeps a whole run's log in one segment, so no segment
	// rotation (which fsyncs) lands inside a measured window.
	segmentSize = 256 << 20
)

// spec is one benchmark workload: a driver, an execution system (arm) and a
// log device.
type spec struct {
	name   string
	driver string // "tm1" or "tpcc"
	dora   bool   // DORA arm; false is the Baseline arm
	synced bool   // file-backed WAL with the modeled flush latency
}

var specs = []spec{
	{name: "tm1-dora", driver: "tm1", dora: true},
	{name: "tm1-baseline", driver: "tm1"},
	{name: "tpcc-dora", driver: "tpcc", dora: true},
	{name: "tpcc-sync-dora", driver: "tpcc", dora: true, synced: true},
	// Blocked on ROADMAP item 2 (a deadlock victim's rollback fails with
	// "page full" and drives the engine to Failed): runnable to show the
	// defect, not listed in BENCHMARK.json.
	{name: "tpcc-baseline", driver: "tpcc"},
	{name: "tpcc-sync-baseline", driver: "tpcc", synced: true},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) arm() string {
	if s.dora {
		return "dora"
	}
	return "baseline"
}

func newDriver(name string) workload.Driver {
	if name == "tm1" {
		return tm1.New(tm1Subscribers)
	}
	return tpcc.New(tpccWarehouses)
}

// env is one freshly created, loaded and bound engine for one arm.
type env struct {
	drv    workload.Driver
	eng    *engine.Engine
	sys    *dora.System // nil on the Baseline arm
	dev    *device
	logDir string
}

// setup creates, loads and binds one engine. The workload seed drives the
// load; the modeled flush latency is set after the load so it models the
// device under traffic only.
func setup(s spec, seed int64, workdir string) (*env, error) {
	var inner wal.Device
	var logDir string
	if s.synced {
		if err := os.MkdirAll(workdir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workdir, "wal-")
		if err != nil {
			return nil, err
		}
		fd, _, _, err := wal.OpenFileDevice(dir, segmentSize)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		inner, logDir = fd, dir
	} else {
		inner = wal.NewMemDevice()
	}
	ev := &env{drv: newDriver(s.driver), dev: &device{inner: inner}, logDir: logDir}
	eng, err := engine.NewWithDevice(engine.Config{BufferPoolFrames: 1 << 15}, ev.dev)
	if err != nil {
		inner.Close()
		os.RemoveAll(logDir)
		return nil, err
	}
	ev.eng = eng
	if err := ev.drv.CreateTables(eng); err != nil {
		ev.close()
		return nil, fmt.Errorf("create tables: %w", err)
	}
	if err := ev.drv.Load(eng, rand.New(rand.NewSource(seed))); err != nil {
		ev.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	if s.dora {
		ev.sys = dora.NewSystem(eng, dora.Config{})
		if err := ev.drv.BindDORA(ev.sys, executorsPerTable); err != nil {
			ev.close()
			return nil, fmt.Errorf("bind: %w", err)
		}
	}
	if s.synced {
		eng.Log().SetFlushDelay(flushDelay)
	}
	return ev, nil
}

func (ev *env) close() {
	if ev.sys != nil {
		ev.sys.Stop()
	}
	ev.eng.Close()
	if ev.logDir != "" {
		os.RemoveAll(ev.logDir)
	}
}

func (ev *env) call(kind string, rng *rand.Rand, client int) error {
	if ev.sys != nil {
		return ev.drv.RunDORA(ev.sys, kind, rng, client)
	}
	return ev.drv.RunBaseline(ev.eng, kind, rng, client)
}

// counters is a snapshot of every counter the layers export without
// instrumentation switched on.
type counters struct {
	at    time.Time
	dora  dora.Stats
	lock  lockmgr.Stats
	flush wal.FlushStats
	pool  buffer.Stats
	bytes uint64
	rt    [3]metrics.Sample
	cpu   time.Duration // process user+system CPU time
}

// rtNames are the Go runtime counters read around a window. The GC CPU
// estimate advances once per completed collection.
var rtNames = [3]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func (ev *env) snapshot() counters {
	c := counters{at: time.Now()}
	if ev.sys != nil {
		c.dora = ev.sys.Stats()
	}
	c.lock = ev.eng.LockManager().Stats()
	c.flush = ev.eng.Log().FlushStats()
	c.pool = ev.eng.BufferPool().Stats()
	c.bytes = ev.dev.bytes.Load()
	for i, n := range rtNames {
		c.rt[i].Name = n
	}
	metrics.Read(c.rt[:])
	c.cpu = processCPU()
	return c
}

func (c counters) rtValue(i int) float64 {
	switch v := c.rt[i].Value; v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	default:
		return 0
	}
}

// sample is one timed driver call that ended in a commit or an input abort.
type sample struct {
	start  int64 // ns since the measured window opened
	dur    int64 // ns
	kind   uint8
	client uint8
	out    outcome
}

// window is the result of one measured interval of closed-loop traffic.
type window struct {
	kinds       []string
	weights     []int    // mix weight of each kind
	samples     []sample // committed and input-aborted calls, every client
	committed   uint64
	inputAborts uint64
	failed      uint64
	causes      map[string]uint64 // failed calls by workload.AbortCause
	elapsed     time.Duration
	origin      time.Time // traffic started (warm-up included)
	subLen      time.Duration
	cpuMarks    []time.Duration // process CPU time at each sub-window boundary
	before      counters
	after       counters
	failedAt    time.Duration // engine reached Failed, since traffic started; -1 never
	// Filled only by traced windows.
	failSpans []span
}

// attempted counts every call that ended inside the window.
func (w *window) attempted() uint64 { return w.committed + w.inputAborts + w.failed }

// hooks attach the traced run's instruments at the window's opening and
// detach them at its close; nil for an untraced window.
type hooks struct {
	attach, detach func()
}

// drive runs the closed-loop clients for warmup+measure and returns the
// measured window, cut into sub-windows of about subWindowLen with the
// process CPU time read at each boundary. Each client sends its next
// transaction only after the previous call returns; a call is counted when it
// ends inside the window.
func drive(ev *env, seed int64, measure time.Duration, h *hooks) *window {
	mix := ev.drv.Mix()
	kinds := mix.Names()
	index := make(map[string]uint8, len(kinds))
	for i, k := range kinds {
		index[k] = uint8(i)
	}
	origin := time.Now()
	t0 := origin.Add(warmup)
	tEnd := t0.Add(measure)
	var failedAt atomic.Int64
	failedAt.Store(-1)

	type clientOut struct {
		samples   []sample
		failed    uint64
		causes    map[string]uint64
		failSpans []span
	}
	outs := make([]clientOut, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000003 + int64(id+1)*7919))
			out := clientOut{samples: make([]sample, 0, 1<<16), causes: map[string]uint64{}}
			for {
				kind := mix.Pick(rng)
				start := time.Now()
				err := ev.call(kind, rng, id)
				end := time.Now()
				o := classify(err)
				if o == failed && failedAt.Load() < 0 && ev.eng.Health() == engine.HealthFailed {
					failedAt.CompareAndSwap(-1, int64(end.Sub(origin)))
				}
				if end.After(tEnd) {
					break
				}
				if end.Before(t0) {
					continue
				}
				if o == failed {
					out.failed++
					out.causes[workload.AbortCause(err)]++
					if h != nil && len(out.failSpans) < maxFailSpans {
						out.failSpans = append(out.failSpans, span{Name: "txn", Client: id, Kind: kind,
							Outcome: "failed:" + workload.AbortCause(err), Start: start, End: end})
					}
					continue
				}
				out.samples = append(out.samples, sample{
					start: int64(start.Sub(t0)), dur: int64(end.Sub(start)), kind: index[kind], client: uint8(id), out: o})
			}
			outs[id] = out
		}(c)
	}
	subs := max(1, int(measure/subWindowLen))
	weights := make([]int, len(mix))
	for i, k := range mix {
		weights[i] = k.Weight
	}
	w := &window{kinds: kinds, weights: weights, causes: map[string]uint64{}, origin: origin, subLen: measure / time.Duration(subs)}
	time.Sleep(time.Until(t0))
	if h != nil {
		h.attach()
	}
	w.before = ev.snapshot()
	w.cpuMarks = append(w.cpuMarks, w.before.cpu)
	for i := 1; i < subs; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i) * w.subLen)))
		w.cpuMarks = append(w.cpuMarks, processCPU())
	}
	time.Sleep(time.Until(tEnd))
	w.after = ev.snapshot()
	w.cpuMarks = append(w.cpuMarks, w.after.cpu)
	if h != nil {
		h.detach()
	}
	wg.Wait()
	w.elapsed = w.after.at.Sub(w.before.at)
	w.failedAt = time.Duration(failedAt.Load())
	for _, o := range outs {
		for _, s := range o.samples {
			if s.out == committed {
				w.committed++
			} else {
				w.inputAborts++
			}
		}
		w.samples = append(w.samples, o.samples...)
		w.failed += o.failed
		for k, v := range o.causes {
			w.causes[k] += v
		}
		w.failSpans = append(w.failSpans, o.failSpans...)
	}
	return w
}

// maxFailSpans bounds the failed-call spans a traced client keeps: a Failed
// engine refuses calls in about a microsecond each.
const maxFailSpans = 100000

// liveHeapMB forces a collection and returns the live heap in MB (10^6 bytes).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
