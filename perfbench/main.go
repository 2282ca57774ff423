// Command perfbench is the repository benchmark: TM1 and TPC-C over the
// in-memory log and TPC-C over a file-backed log with a modeled flush
// latency, each on the Baseline or the DORA execution system. It drives the
// engine only through its public entry points, checks every run with the
// workload's consistency checker, and prints each metric by name and unit;
// the last line of standard output is one JSON object.
//
// An end-to-end run (-trace 0) measures with no collector, no trace hook and
// no device timing attached. A traced run (-trace 1) measures an untraced
// window and a traced window on two fresh engines and prints the per-layer
// metrics, the tracing overhead, and writes its spans to a file.
//
// See README.md in this directory for the workloads and the reasons behind
// them; run.py builds and runs it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/engine"
	"dora/internal/metrics"
	"dora/internal/workload"
)

// setupRepeats is how many times an end-to-end run creates, loads and binds
// its engine; setup_s is the median, and the last engine is measured.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	workdir  string
	commit   string
	source   string
}

// result is what one invocation prints.
type result struct {
	correct   bool
	verdicts  []string
	attempted uint64
	failed    uint64
	metrics   []metric
	extras    []metric // printed for people, not part of the JSON result
	stamp     map[string]any
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(specNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for the load and every client's generator")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for log files and span files")
	fs.StringVar(&o.commit, "commit", "unknown", "commit of the code under test (stamp)")
	fs.StringVar(&o.source, "source", "unknown", "digest of the source under test (stamp)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := findSpec(o.workload)
	if !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload in {%s}, -seconds >= 1, -trace 0|1\n", strings.Join(specNames(), ", "))
		return 2
	}
	var res *result
	var err error
	if o.trace == 0 {
		res, err = endToEnd(sp, o)
	} else {
		res, err = traced(sp, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printResult(res)
	return 0
}

func specNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// stamp identifies the host and the run on every output.
func stamp(sp spec, o options) map[string]any {
	st := map[string]any{
		"workload":            sp.name,
		"arm":                 sp.arm(),
		"seed":                o.seed,
		"seconds":             o.seconds,
		"trace":               o.trace,
		"commit":              o.commit,
		"source_sha256":       o.source,
		"go":                  runtime.Version(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"nproc":               runtime.NumCPU(),
		"clients":             clients,
		"executors_per_table": executorsPerTable,
		"log_fs":              "none (in-memory log device)",
	}
	if sp.synced {
		st["log_fs"] = fsType(o.workdir)
		st["flush_delay_requested_us"] = flushDelay.Microseconds()
	}
	return st
}

// setupMedian creates, loads and binds the arm's engine setupRepeats times
// and returns the last one with the median set-up CPU and wall times.
func setupMedian(sp spec, o options) (ev *env, cpuS, wallS float64, err error) {
	var cpus, walls []float64
	for i := 0; i < setupRepeats; i++ {
		if ev != nil {
			ev.close()
		}
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		if ev, err = setup(sp, o.seed, o.workdir); err != nil {
			return nil, 0, 0, err
		}
		cpus = append(cpus, (processCPU() - c0).Seconds())
		walls = append(walls, time.Since(t0).Seconds())
	}
	sort.Float64s(cpus)
	sort.Float64s(walls)
	return ev, median(cpus), median(walls), nil
}

// clientFigures are the client-side figures of a window, each a median over
// its sub-windows.
type clientFigures struct {
	tps metric
	// p50 is the median call latency. In a mix whose kinds take very
	// different times (TPC-C: Payment about 0.1 ms, NewOrder about 0.4 ms) it
	// falls in the sparse gap between them and jumps with small shifts, so
	// mixP50, the mix-weighted mean of the per-kind medians, is the bounded
	// figure.
	p50, mixP50 metric
	// p99 needs at least minTail samples beyond it in every sub-window.
	p99 metric
	// cpu is the process CPU time (user+system, host steal excluded) per
	// committed transaction.
	cpu metric
}

func clientMetrics(w *window) clientFigures {
	subs := w.subWindows()
	var f clientFigures
	f.tps = subMedian("tps", "1/s", subs, func(s subWindow) (float64, bool) {
		return float64(s.committed) / s.length.Seconds(), true
	})
	f.p50 = subMedian("p50_ms", "ms", subs, func(s subWindow) (float64, bool) {
		return float64(quantile(s.durations, 0.5)) / 1e6, len(s.durations) > 0
	})
	f.mixP50 = subMedian("mix_p50_ms", "ms", subs, func(s subWindow) (float64, bool) {
		var sum, weights float64
		for k, d := range s.byKind {
			if len(d) == 0 {
				return 0, false
			}
			sum += float64(w.weights[k]) * float64(quantile(d, 0.5))
			weights += float64(w.weights[k])
		}
		return sum / weights / 1e6, true
	})
	f.p99 = subMedian("p99_ms", "ms", subs, func(s subWindow) (float64, bool) {
		v, _, ok := tail(s.durations, 0.99)
		return float64(v) / 1e6, ok
	})
	f.cpu = subMedian("cpu_us_per_txn", "us", subs, func(s subWindow) (float64, bool) {
		return float64(s.cpu.Microseconds()) / float64(s.committed), s.committed > 0
	})
	return f
}

// endToEnd measures the user-visible metrics with no instrumentation
// attached. tps and p99_ms are printed but not bounded: on a host that
// shares its CPUs they move with CPU steal (see README.md).
func endToEnd(sp spec, o options) (*result, error) {
	ev, setupCPU, setupWall, err := setupMedian(sp, o)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer ev.close()
	loadedHeap := liveHeapMB()
	w := drive(ev, o.seed, time.Duration(o.seconds)*time.Second, nil)
	res := &result{correct: true, stamp: stamp(sp, o), attempted: w.attempted(), failed: w.failed}
	observeFlushCycle(res.stamp, w)

	f := clientMetrics(w)
	res.report(&res.metrics, f.mixP50, f.cpu)
	res.report(&res.extras, f.tps, f.p50, f.p99)
	w.samples = nil
	retained := liveHeapMB() - loadedHeap
	res.metrics = append(res.metrics,
		metric{Name: "live_heap_mb", Unit: "MB", Value: loadedHeap, Note: fmt.Sprintf(
			"loaded engine after a forced GC, before traffic; %.1f MB more after the window", retained)},
		metric{Name: "setup_s", Unit: "s", Value: setupCPU, Note: fmt.Sprintf(
			"median CPU time of %d set-ups; median wall time %.3f s", setupRepeats, setupWall)})
	res.addVerdict(sp.arm(), ev, w)
	return res, nil
}

// report appends each sub-window median to dst, or, when some sub-window
// declined it (too few samples), a verdict line saying why in its place.
func (r *result) report(dst *[]metric, ms ...metric) {
	for _, m := range ms {
		if m.Value > 0 {
			*dst = append(*dst, m)
		} else {
			r.verdicts = append(r.verdicts, m.Name+" not reported: "+m.Note)
		}
	}
}

// addVerdict runs the workload's consistency checker on the quiescent engine
// and records the arm's verdict. A checker violation or an engine that left
// Healthy marks the run incorrect; failed calls are reported beside it and
// counted in the result's failed total.
func (r *result) addVerdict(label string, ev *env, w *window) {
	var problems []string
	if h := ev.eng.Health(); h != engine.HealthHealthy {
		problems = append(problems, "engine "+h.String())
	}
	if err := ev.drv.Check(ev.eng); err != nil {
		problems = append(problems, "checker: "+err.Error())
	}
	calls := fmt.Sprintf("; %d of %d calls failed %v", w.failed, w.attempted(), w.causes)
	if len(problems) > 0 {
		r.correct = false
		r.verdicts = append(r.verdicts, label+": FAILED: "+strings.Join(problems, "; ")+calls)
		return
	}
	r.verdicts = append(r.verdicts, label+": checker passed, engine healthy"+calls)
}

// kindDurations returns the call durations of one transaction kind's
// committed and input-aborted calls.
func (w *window) kindDurations(kind int) []int64 {
	var out []int64
	for _, s := range w.samples {
		if int(s.kind) == kind {
			out = append(out, s.dur)
		}
	}
	return out
}

// observeFlushCycle stamps the observed mean flush cycle (window / device
// writes) next to the requested modeled latency.
func observeFlushCycle(st map[string]any, w *window) {
	if _, ok := st["flush_delay_requested_us"]; !ok {
		return
	}
	if n := w.after.flush.Flushes - w.before.flush.Flushes; n > 0 {
		st["flush_cycle_observed_mean_us"] = float64(w.elapsed.Microseconds()) / float64(n)
	}
}

// allKinds lists every transaction kind of both workloads, so each traced
// run prints the same per-layer metric names.
func allKinds() []string {
	return append(newDriver("tm1").Mix().Names(), newDriver("tpcc").Mix().Names()...)
}

// traced measures an untraced window for the counter-based per-layer metrics
// and a traced window (collector, trace hook, device timing) for the rest,
// each on a fresh engine and each half the run.
func traced(sp spec, o options) (*result, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	res := &result{correct: true, stamp: stamp(sp, o)}

	evU, err := setup(sp, o.seed, o.workdir)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	heapBefore := liveHeapMB()
	wU := drive(evU, o.seed, half, nil)
	res.metrics = untracedMetrics(wU)
	wU.samples = nil
	res.metrics = append(res.metrics, ratio("go.retained_bytes_per_txn", "B", (liveHeapMB()-heapBefore)*1e6,
		"live_heap_growth_bytes", wU.committed, "committed", 1))
	res.addVerdict("untraced "+sp.arm(), evU, wU)
	evU.close()
	observeFlushCycle(res.stamp, wU)

	evT, err := setup(sp, o.seed, o.workdir)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer evT.close()
	col := metrics.NewCollector()
	devSpans := &spanLog{}
	var accesses atomic.Uint64
	var perTable sync.Map // table name -> *atomic.Uint64
	hook := func(ev engine.TraceEvent) {
		accesses.Add(1)
		c, ok := perTable.Load(ev.Table)
		if !ok {
			c, _ = perTable.LoadOrStore(ev.Table, new(atomic.Uint64))
		}
		c.(*atomic.Uint64).Add(1)
	}
	wT := drive(evT, o.seed, half, &hooks{
		attach: func() {
			evT.eng.SetCollector(col)
			evT.eng.SetTraceHook(hook)
			evT.dev.spans.Store(devSpans)
		},
		detach: func() {
			evT.dev.spans.Store(nil)
			evT.eng.SetTraceHook(nil)
			evT.eng.SetCollector(nil)
		},
	})
	res.addVerdict("traced "+sp.arm(), evT, wT)
	res.attempted = wU.attempted() + wT.attempted()
	res.failed = wU.failed + wT.failed

	res.metrics = append(res.metrics, tracedMetrics(wU, wT, col, devSpans.spans, float64(accesses.Load()))...)
	tables := map[string]uint64{}
	perTable.Range(func(k, v any) bool {
		tables[k.(string)] = v.(*atomic.Uint64).Load()
		return true
	})
	path := filepath.Join(o.workdir, "trace", fmt.Sprintf("%s-seed%d.jsonl", sp.name, o.seed))
	if err := writeSpans(path, res.stamp, wT, devSpans.spans, tables); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.stamp["span_file"] = path
	return res, nil
}

// untracedMetrics derives the per-layer metrics that need no instrument
// switched on, from the untraced window: client timings, the counters the
// layers export, and the Go runtime's. Every per-transaction ratio uses the
// window's attempted calls as base.
func untracedMetrics(w *window) []metric {
	var out []metric
	add := func(m ...metric) { out = append(out, m...) }
	b, a := w.before, w.after
	att := w.attempted()
	d := func(f func(c counters) uint64) float64 { return float64(f(a) - f(b)) }

	// client side of the workload
	f := clientMetrics(w)
	f.tps.Name = "client.tps"
	f.p50.Name = "client.p50_ms"
	f.p99.Name = "client.p99_ms"
	add(f.tps, f.p50, f.p99)
	index := map[string]int{}
	for i, k := range w.kinds {
		index[k] = i
	}
	for _, k := range allKinds() {
		m := metric{Name: "txn." + k + ".p50_us", Unit: "us", Note: "not in this workload's mix"}
		if i, ok := index[k]; ok {
			m = timing(m.Name, "us", sortedCopy(w.kindDurations(i)), time.Microsecond)
		}
		add(m)
	}
	add(frac("txn.input_abort_frac", float64(w.inputAborts), "input_aborts", float64(att), "attempted"),
		frac("failed_frac", float64(w.failed), "failed", float64(att), "attempted"))

	// dora
	add(ratio("dora.msgs_per_drain", "count", d(func(c counters) uint64 { return c.dora.MessagesProcessed }), "messages",
		a.dora.BatchesDrained-b.dora.BatchesDrained, "drains", 1),
		ratio("dora.actions_per_txn", "count", d(func(c counters) uint64 { return c.dora.ActionsExecuted }), "actions", att, "attempted", 1),
		ratio("dora.forwarded_per_txn", "count", d(func(c counters) uint64 { return c.dora.ActionsForwarded }), "forwarded", att, "attempted", 1),
		frac("dora.blocked_frac", d(func(c counters) uint64 { return c.dora.ActionsBlocked }), "blocked",
			d(func(c counters) uint64 { return c.dora.ActionsExecuted }), "actions"),
		ratio("dora.lockwait_aborts_per_ktxn", "count", float64(w.causes[workload.CauseDeadlock]), "deadlock_cause_aborts", att, "attempted", 1000))

	// lockmgr
	add(ratio("lockmgr.acquires_per_txn", "count", d(func(c counters) uint64 { return c.lock.Acquisitions }), "acquisitions", att, "attempted", 1),
		ratio("lockmgr.waits_per_ktxn", "count", d(func(c counters) uint64 { return c.lock.Waits }), "waits", att, "attempted", 1000),
		ratio("lockmgr.deadlocks_per_ktxn", "count", d(func(c counters) uint64 { return c.lock.Deadlocks }), "deadlocks", att, "attempted", 1000))

	// engine health
	failedFlag, survived := 0.0, (w.after.at.Sub(w.origin)).Seconds()
	if w.failedAt >= 0 {
		failedFlag, survived = 1, w.failedAt.Seconds()
	}
	add(metric{Name: "engine.failed", Unit: "bool", Value: failedFlag, Note: "1 if health reached Failed"},
		metric{Name: "engine.time_to_failed_s", Unit: "s", Value: survived, Note: "seconds of traffic until Failed, or all of it if never"})

	// wal
	flushes := a.flush.Flushes - b.flush.Flushes
	add(ratio("wal.appends_per_txn", "count", d(func(c counters) uint64 { return c.flush.Appends }), "appends", att, "attempted", 1),
		ratio("wal.bytes_per_txn", "B", float64(a.bytes-b.bytes), "device_bytes", att, "attempted", 1),
		ratio("wal.flushes_per_txn", "count", float64(flushes), "flushes", att, "attempted", 1),
		ratio("wal.commits_per_flush", "count", d(func(c counters) uint64 { return c.flush.CommitsFlushed }), "commits_flushed", flushes, "flushes", 1),
		ratio("wal.appends_per_group", "count", d(func(c counters) uint64 { return c.flush.Appends }), "appends",
			a.flush.Groups-b.flush.Groups, "groups", 1))

	// buffer
	hits := float64(a.pool.Hits - b.pool.Hits)
	fetches := hits + float64(a.pool.Misses-b.pool.Misses)
	add(ratio("buffer.fetches_per_txn", "count", fetches, "fetches", att, "attempted", 1),
		frac("buffer.hit_ratio", hits, "hits", fetches, "fetches"))

	// Go runtime
	rt := func(i int) float64 { return a.rtValue(i) - b.rtValue(i) }
	add(ratio("go.allocs_per_txn", "count", rt(0), "heap_objects", att, "attempted", 1),
		ratio("go.bytes_per_txn", "B", rt(1), "heap_bytes", att, "attempted", 1),
		frac("go.gc_cpu_frac", rt(2), "gc_cpu_s", (a.cpu-b.cpu).Seconds(), "process_cpu_s"))
	return out
}

// tracedMetrics derives the per-layer metrics that need the traced window's
// instruments: the collector's time shares and histograms, the hook's record
// accesses, the device spans, and the tracing overhead against the untraced
// window wU.
func tracedMetrics(wU, wT *window, col *metrics.Collector, devSpans []span, accesses float64) []metric {
	var out []metric
	add := func(m ...metric) { out = append(out, m...) }
	att := wT.attempted()

	// Time shares, completed the way the harness does: client time the
	// collector did not attribute counts as work.
	var busy time.Duration
	for _, s := range wT.samples {
		busy += time.Duration(s.dur)
	}
	for _, s := range wT.failSpans {
		busy += s.End.Sub(s.Start)
	}
	br := col.Breakdown()
	total := float64(br.Total)
	if float64(busy) > total {
		total = float64(busy)
	}
	lockShare := br.Fractions[metrics.LockMgr] + br.Fractions[metrics.LockMgrContention]
	add(frac("lockmgr.time_frac", lockShare*float64(br.Total), "lockmgr_ns", total, "busy_ns"),
		frac("dora.overhead_frac", br.Fractions[metrics.DORA]*float64(br.Total), "dora_ns", total, "busy_ns"),
		metric{Name: "dora.critical_path_us", Unit: "us", Value: col.CriticalPath().Mean(), Note: "mean, " + col.CriticalPath().String()},
		metric{Name: "dora.lock_hold_us", Unit: "us", Value: col.LockHold().Mean(), Note: "mean, " + col.LockHold().String()})

	add(ratio("engine.records_per_txn", "count", accesses, "hook_events", att, "attempted", 1),
		ratio("engine.snapshot_reads_per_txn", "count", float64(col.SnapshotReads()), "snapshot_reads", att, "attempted", 1),
		metric{Name: "engine.chain_len_mean", Unit: "count", Value: col.ChainLength().Mean(), Note: col.ChainLength().String()},
		metric{Name: "engine.prune_lag_mean", Unit: "epochs", Value: col.PruneLag().Mean(), Note: col.PruneLag().String()})

	add(metric{Name: "wal.append_wait_us", Unit: "us", Value: col.AppendWait().Mean(), Note: "mean, " + col.AppendWait().String()})
	var writes, syncs, cycles []int64
	var lastWrite time.Time
	for _, s := range devSpans {
		switch s.Name {
		case "device.write":
			writes = append(writes, int64(s.End.Sub(s.Start)))
			if !lastWrite.IsZero() {
				cycles = append(cycles, int64(s.Start.Sub(lastWrite)))
			}
			lastWrite = s.Start
		case "device.sync":
			syncs = append(syncs, int64(s.End.Sub(s.Start)))
		}
	}
	add(timing("wal.flush_cycle_us", "us", sortedCopy(cycles), time.Microsecond),
		timing("wal.device_write_us", "us", sortedCopy(writes), time.Microsecond),
		timing("wal.device_sync_us", "us", sortedCopy(syncs), time.Microsecond))

	tpsU := float64(wU.committed) / wU.elapsed.Seconds()
	tpsT := float64(wT.committed) / wT.elapsed.Seconds()
	m := metric{Name: "trace.overhead_frac", Unit: "frac", Note: fmt.Sprintf("1 - traced tps %.1f / untraced tps %.1f", tpsT, tpsU)}
	if tpsU > 0 {
		m.Value = 1 - tpsT/tpsU
	}
	add(m)
	return out
}

// spanRecord is one line of the span file.
type spanRecord struct {
	Span    string `json:"span"`
	ID      uint64 `json:"id,omitempty"`
	Client  *int   `json:"client,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Bytes   int    `json:"bytes,omitempty"`
}

// writeSpans writes the traced window's spans as JSON lines: the stamp, one
// span per transaction call (ID = client<<40 | sequence; times relative to
// the window's opening), one per device write and sync, and the hook's
// record-access counts per table.
func writeSpans(path string, st map[string]any, w *window, dev []span, tables map[string]uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"stamp": st}); err != nil {
		return err
	}
	t0 := w.before.at
	seq := map[int]uint64{}
	outcomeName := [...]string{committed: "committed", inputAbort: "input_abort"}
	for _, s := range w.samples {
		c := int(s.client)
		seq[c]++
		if err := enc.Encode(spanRecord{Span: "txn", ID: uint64(c)<<40 | seq[c], Client: &c, Kind: w.kinds[s.kind],
			Outcome: outcomeName[s.out], StartNS: s.start, EndNS: s.start + s.dur}); err != nil {
			return err
		}
	}
	for _, s := range w.failSpans {
		c := s.Client
		if err := enc.Encode(spanRecord{Span: "txn", Client: &c, Kind: s.Kind, Outcome: s.Outcome,
			StartNS: int64(s.Start.Sub(t0)), EndNS: int64(s.End.Sub(t0))}); err != nil {
			return err
		}
	}
	for _, s := range dev {
		if err := enc.Encode(spanRecord{Span: s.Name, StartNS: int64(s.Start.Sub(t0)), EndNS: int64(s.End.Sub(t0)),
			Bytes: s.Bytes}); err != nil {
			return err
		}
	}
	if err := enc.Encode(map[string]any{"record_accesses": tables}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// printResult prints the stamp, one line per metric with its unit and note,
// each arm's checker verdict, and finally the JSON result line.
func printResult(r *result) {
	st, _ := json.Marshal(r.stamp)
	fmt.Printf("stamp %s\n", st)
	for _, v := range r.verdicts {
		fmt.Printf("verdict %s\n", v)
	}
	out := map[string]map[string]any{}
	for _, m := range r.metrics {
		fmt.Printf("metric %-36s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	for _, m := range r.extras {
		fmt.Printf("extra  %-36s %14.6g %-6s %s (not bounded)\n", m.Name, m.Value, m.Unit, m.Note)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Println(string(line))
}
