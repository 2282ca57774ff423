package dora

import (
	"dora/internal/engine"
)

// WithSnapshot runs fn against a read-only snapshot pinned at the current
// log horizon, bypassing the executors entirely: no actions are enqueued, no
// incoming-queue latches are taken, and no local-lock-table entries are made.
// This is the entry point for analytical ranged reads (full-table
// aggregations, StockLevel's ORDER_LINE/STOCK scans) that would otherwise
// contend with writers on the partitions' ordered queues. The snapshot is
// released when fn returns; fn sees one consistent horizon for all its reads
// and must not hold the *engine.Snapshot past its return.
func (s *System) WithSnapshot(fn func(*engine.Snapshot) error) error {
	if s.stopped.Load() {
		return ErrSystemStopped
	}
	// Snapshot reads are served through DegradedReadOnly (they never touch
	// the log — the whole point of the degraded mode), but not once the
	// engine's in-memory state itself is untrustworthy.
	if s.eng.Health() == engine.HealthFailed {
		return engine.ErrEngineFailed
	}
	snap := s.eng.BeginSnapshot()
	defer snap.Release()
	return fn(snap)
}
