package main

import (
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/wal"
)

// device wraps the engine's log device from outside the engine: it always
// counts the bytes the flusher writes, and while a span log is attached it
// times every device write and sync. Only the WAL flusher (and, under
// SyncInterval, the sync loop) calls it.
type device struct {
	inner wal.Device
	bytes atomic.Uint64
	spans atomic.Pointer[spanLog]
}

func (d *device) Append(chunk []byte, firstLSN wal.LSN) error {
	d.bytes.Add(uint64(len(chunk)))
	sl := d.spans.Load()
	if sl == nil {
		return d.inner.Append(chunk, firstLSN)
	}
	t0 := time.Now()
	err := d.inner.Append(chunk, firstLSN)
	sl.add(span{Name: "device.write", Start: t0, End: time.Now(), Bytes: len(chunk)})
	return err
}

func (d *device) Sync() error {
	sl := d.spans.Load()
	if sl == nil {
		return d.inner.Sync()
	}
	t0 := time.Now()
	err := d.inner.Sync()
	sl.add(span{Name: "device.sync", Start: t0, End: time.Now()})
	return err
}

func (d *device) Unappend() error                             { return d.inner.Unappend() }
func (d *device) ReadAll() (wal.LSN, []byte, error)           { return d.inner.ReadAll() }
func (d *device) TruncateBefore(lsn wal.LSN) (wal.LSN, error) { return d.inner.TruncateBefore(lsn) }
func (d *device) Close() error                                { return d.inner.Close() }

// span is one traced interval. Transaction spans carry the client, the
// transaction kind and the outcome; device spans carry the bytes written.
type span struct {
	Name    string
	Client  int
	Kind    string
	Outcome string
	Start   time.Time
	End     time.Time
	Bytes   int
}

// spanLog keeps the traced run's device spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}
