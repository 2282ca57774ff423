package engine

import (
	"errors"
	"testing"
	"time"

	"dora/internal/storage"
	"dora/internal/wal"
)

// logPosition is what a transaction that touches no log must leave unchanged.
type logPosition struct {
	appends uint64
	next    wal.LSN
}

func positionOf(e *Engine) logPosition {
	return logPosition{appends: e.Log().Appends(), next: e.Log().CurrentLSN()}
}

// A read-only transaction appends nothing — no BEGIN, COMMIT, ABORT or END —
// whether it commits synchronously, commits asynchronously or aborts.
func TestReadOnlyTxnTouchesNoLog(t *testing.T) {
	e, _ := newAccountsEngine(t)
	defer e.Close()
	setup := e.Begin()
	mustInsert(t, e, setup, 1, 1, "alice", 100)
	if err := e.Commit(setup); err != nil {
		t.Fatalf("setup Commit: %v", err)
	}

	read := func(txn *Txn) {
		t.Helper()
		if _, err := e.Probe(txn, "accounts", pkOf(1), Conventional()); err != nil {
			t.Fatalf("Probe: %v", err)
		}
		if _, err := e.SecondaryLookup(txn, "accounts", "by_branch", storage.EncodeKey(storage.IntValue(1)), Conventional()); err != nil {
			t.Fatalf("SecondaryLookup: %v", err)
		}
	}
	cases := []struct {
		name   string
		finish func(*Txn) error
	}{
		{"commit", func(txn *Txn) error { return e.Commit(txn) }},
		{"commit-async-early", func(txn *Txn) error {
			released := false
			done := make(chan error, 1)
			e.CommitAsyncEarly(txn, func() { released = true }, func(err error) { done <- err })
			if !released {
				t.Error("early() did not run at once")
			}
			return <-done
		}},
		{"abort", func(txn *Txn) error { return e.Abort(txn) }},
	}
	for _, c := range cases {
		before := positionOf(e)
		txn := e.Begin()
		read(txn)
		if err := c.finish(txn); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if txn.Active() {
			t.Fatalf("%s: transaction still active", c.name)
		}
		if got := positionOf(e); got != before {
			t.Fatalf("%s: read-only transaction moved the log from %+v to %+v", c.name, before, got)
		}
	}
}

// A write transaction's first logged record is its BEGIN, written just before
// its first change, and its PrevLSN chain runs unbroken from there to its END,
// on the commit path and on the rollback path alike.
func TestWriteTxnBeginsAtFirstChange(t *testing.T) {
	e, _ := newAccountsEngine(t)
	defer e.Close()
	setup := e.Begin()
	mustInsert(t, e, setup, 1, 1, "alice", 100)
	if err := e.Commit(setup); err != nil {
		t.Fatalf("setup Commit: %v", err)
	}
	credit := func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(tu[3].Float + 1)
		return tu, nil
	}

	committer := e.Begin()
	before := positionOf(e)
	if _, err := e.Probe(committer, "accounts", pkOf(1), Conventional()); err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if got := positionOf(e); got != before {
		t.Fatalf("a read before the first change moved the log from %+v to %+v", before, got)
	}
	if err := e.Update(committer, "accounts", pkOf(1), Conventional(), credit); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := e.Commit(committer); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	aborter := e.Begin()
	mustInsert(t, e, aborter, 2, 1, "bob", 5)
	if err := e.Update(aborter, "accounts", pkOf(1), Conventional(), credit); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := e.Abort(aborter); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	recs, err := e.Log().Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	for _, c := range []struct {
		txn  *Txn
		want []wal.RecordType
	}{
		{committer, []wal.RecordType{wal.RecBegin, wal.RecUpdate, wal.RecCommit, wal.RecEnd}},
		{aborter, []wal.RecordType{wal.RecBegin, wal.RecInsert, wal.RecUpdate, wal.RecAbort, wal.RecCLR, wal.RecCLR, wal.RecEnd}},
	} {
		var chain []*wal.Record
		for _, r := range recs {
			if r.Txn == c.txn.walID() {
				chain = append(chain, r)
			}
		}
		if len(chain) != len(c.want) {
			t.Fatalf("txn %d logged %d records, want %v", c.txn.ID(), len(chain), c.want)
		}
		for i, r := range chain {
			if r.Type != c.want[i] {
				t.Fatalf("txn %d record %d is %v, want %v", c.txn.ID(), i, r.Type, c.want[i])
			}
			prev := wal.NilLSN
			if i > 0 {
				prev = chain[i-1].LSN
			}
			if r.PrevLSN != prev {
				t.Fatalf("txn %d record %d (%v) PrevLSN = %d, want %d", c.txn.ID(), i, r.Type, r.PrevLSN, prev)
			}
		}
	}
}

// Begin on a closed log still hands out a born-aborted transaction, although
// it no longer appends a BEGIN that would report the closure.
func TestBeginAfterLogCloseIsBornAborted(t *testing.T) {
	e, _ := newAccountsEngine(t)
	defer e.Close()
	if err := e.Log().Close(); err != nil {
		t.Fatalf("Log().Close: %v", err)
	}
	txn := e.Begin()
	if txn.Active() {
		t.Fatal("Begin on a closed log should be born aborted")
	}
	if _, err := e.Probe(txn, "accounts", pkOf(1), Conventional()); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Probe on born-aborted txn = %v, want ErrTxnDone", err)
	}
}

// heldReaders is the state of heldWriterWithReaders: writer W has appended
// its COMMIT and released early while its flush is held on the device, and
// readers R (Commit) and R2 (CommitAsync) have read W's write and are
// committing.
type heldReaders struct {
	e                *Engine
	dev              *gatedDevice
	w                *Txn
	wCommit          wal.LSN
	wDone, rDone     chan error
	r2Done           chan error
	rFlushedAtReturn wal.LSN
}

// heldWriterWithReaders builds that state over inner and checks that neither
// reader has been acknowledged while W's flush is held. The caller lets the
// flush through (or fails it) with h.dev.release.
func heldWriterWithReaders(t *testing.T, inner wal.Device) *heldReaders {
	t.Helper()
	dev := &gatedDevice{Device: inner, entered: make(chan struct{}, 2), release: make(chan struct{})}
	e, err := NewWithDevice(Config{BufferPoolFrames: 256}, dev)
	if err != nil {
		t.Fatalf("NewWithDevice: %v", err)
	}
	t.Cleanup(func() { e.Close() }) //nolint:errcheck // a failed device fails Close too
	t.Cleanup(dev.open)
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	setup := e.Begin()
	mustInsert(t, e, setup, 1, 1, "alice", 100)
	if err := e.Commit(setup); err != nil {
		t.Fatalf("setup Commit: %v", err)
	}

	h := &heldReaders{e: e, dev: dev, wDone: make(chan error, 1), rDone: make(chan error, 1), r2Done: make(chan error, 1)}
	dev.gated.Store(true)
	h.w = e.Begin()
	if err := e.Update(h.w, "accounts", pkOf(1), AccessOptions{NoLock: true}, func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(150)
		return tu, nil
	}); err != nil {
		t.Fatalf("W Update: %v", err)
	}
	// W's COMMIT is the next record. (The log image cannot be read while a
	// flush is held, so its position is checked once the flush is done.)
	h.wCommit = e.Log().CurrentLSN()
	released := false
	e.CommitAsyncEarly(h.w, func() { released = true }, func(err error) { h.wDone <- err })
	if !released {
		t.Fatal("W did not release early")
	}
	<-dev.entered // W's flush is now held on the device
	if flushed := e.Log().FlushedLSN(); flushed >= h.wCommit {
		t.Fatalf("flushed to %d with W's flush held, want below W's COMMIT at %d", flushed, h.wCommit)
	}

	readW := func(txn *Txn) {
		t.Helper()
		tu, err := e.Probe(txn, "accounts", pkOf(1), DORARead())
		if err != nil || tu[3].Float != 150 {
			t.Fatalf("reader sees %v (err %v), want W's early-released balance 150", tu, err)
		}
	}
	r := e.Begin()
	readW(r)
	go func() {
		err := e.Commit(r)
		h.rFlushedAtReturn = e.Log().FlushedLSN()
		h.rDone <- err
	}()
	r2 := e.Begin()
	readW(r2)
	e.CommitAsync(r2, func(err error) { h.r2Done <- err })
	select {
	case <-h.r2Done:
		t.Fatal("CommitAsync acknowledged a reader of W while W's COMMIT was not durable")
	default:
	}
	select {
	case err := <-h.rDone:
		t.Fatalf("Commit returned (err %v) while W's COMMIT at %d was held", err, h.wCommit)
	case <-time.After(50 * time.Millisecond):
	}
	return h
}

// A read-only commit appends nothing, but it must not acknowledge data that a
// crash could still roll back. Writer W commits with early lock release and
// its flush is held on the device; reader R reads W's early-released write
// and commits. R may return only once W's COMMIT is durable. A second reader
// commits through CommitAsync: its completion must not run while the flush
// is held either.
func TestReadOnlyCommitWaitsForEarlyReleasedWriter(t *testing.T) {
	h := heldWriterWithReaders(t, wal.NewMemDevice())
	h.dev.gated.Store(false)
	h.dev.release <- struct{}{} // W's flush lands
	if err := <-h.rDone; err != nil {
		t.Fatalf("R Commit: %v", err)
	}
	if h.rFlushedAtReturn < h.wCommit {
		t.Fatalf("R acknowledged with the log flushed to %d, below W's COMMIT at %d", h.rFlushedAtReturn, h.wCommit)
	}
	if err := <-h.r2Done; err != nil {
		t.Fatalf("R2 commit: %v", err)
	}
	if err := <-h.wDone; err != nil {
		t.Fatalf("W commit: %v", err)
	}
	rec, err := h.e.Log().Record(h.wCommit)
	if err != nil || rec == nil || rec.Txn != h.w.walID() || rec.Type != wal.RecCommit {
		t.Fatalf("record at %d = %+v (err %v), want W's COMMIT", h.wCommit, rec, err)
	}
}

// When the flush carrying W's COMMIT fails instead of landing, W's commit is
// not durable and will be rolled back, so the readers that read W's write
// must not be acknowledged either: both read-only commits report the
// failure, as a write commit riding the same flush would.
func TestReadOnlyCommitFailsWithEarlyReleasedWritersFlush(t *testing.T) {
	fd := wal.NewFaultDevice(wal.NewMemDevice())
	h := heldWriterWithReaders(t, fd)
	fd.FailPermanently(nil)
	h.dev.gated.Store(false)
	h.dev.release <- struct{}{} // W's flush fails on the device
	if err := <-h.wDone; !errors.Is(err, wal.ErrDeviceFailed) {
		t.Fatalf("W commit = %v, want ErrDeviceFailed", err)
	}
	if err := <-h.rDone; !errors.Is(err, wal.ErrDeviceFailed) {
		t.Fatalf("R Commit = %v, want ErrDeviceFailed", err)
	}
	if err := <-h.r2Done; !errors.Is(err, wal.ErrDeviceFailed) {
		t.Fatalf("R2 commit = %v, want ErrDeviceFailed", err)
	}
	if got := h.e.Health(); got != HealthDegradedReadOnly {
		t.Fatalf("Health after the failed flush = %v, want degraded-read-only", got)
	}
}
