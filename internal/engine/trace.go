package engine

import (
	"sync"
	"time"

	"dora/internal/storage"
)

// TraceEvent describes one record access, the raw material of the paper's
// Figure 10 access-pattern traces (which worker touched which record when).
type TraceEvent struct {
	// When is the time of the access relative to when tracing started.
	When time.Duration
	// WorkerID is the accessing worker thread (Baseline worker or DORA
	// executor), as provided in AccessOptions.
	WorkerID int
	// Table is the accessed table's name.
	Table string
	// RoutingKey is the record's routing-field key.
	RoutingKey storage.Key
	// Key is the record's first routing-field value when it is an integer
	// (e.g. the District id in Figure 10), otherwise zero.
	Key int64
	// RID is the accessed record.
	RID storage.RID
}

// TraceHook receives record-access events. Hooks must be cheap and
// non-blocking; they run inline with record accesses.
type TraceHook func(TraceEvent)

// tracer is an installed trace hook together with its clock origin; the
// engine swaps whole tracers atomically so a record access reads both with
// one pointer load.
type tracer struct {
	hook  TraceHook
	start time.Time
}

// SetTraceHook installs a record-access trace hook; nil disables tracing.
// The trace clock starts when the hook is installed.
func (e *Engine) SetTraceHook(hook TraceHook) {
	if hook == nil {
		e.trace.Store(nil)
		return
	}
	e.trace.Store(&tracer{hook: hook, start: time.Now()})
}

func (e *Engine) emitTrace(worker int, tbl *Table, tuple storage.Tuple, rid storage.RID) {
	tr := e.trace.Load()
	if tr == nil {
		return
	}
	ev := TraceEvent{
		When:       time.Since(tr.start),
		WorkerID:   worker,
		Table:      tbl.def.Name,
		RoutingKey: tbl.RoutingKey(tuple),
		RID:        rid,
	}
	if len(tbl.routeCols) > 0 {
		v := tuple[tbl.routeCols[0]]
		if v.Kind == storage.KindInt {
			ev.Key = v.Int
		}
	}
	tr.hook(ev)
}

// TraceRecorder is a TraceHook that accumulates events in memory.
type TraceRecorder struct {
	mu     sync.Mutex
	events []TraceEvent
}

// NewTraceRecorder returns an empty recorder.
func NewTraceRecorder() *TraceRecorder { return &TraceRecorder{} }

// Record is the TraceHook method; install it with engine.SetTraceHook(r.Record).
func (r *TraceRecorder) Record(ev TraceEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in arrival order.
func (r *TraceRecorder) Events() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEvent, len(r.events))
	copy(out, r.events)
	return out
}

// Reset clears the recorder.
func (r *TraceRecorder) Reset() {
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}
