package engine

import (
	"errors"
	"sync/atomic"
	"testing"

	"dora/internal/storage"
	"dora/internal/wal"
)

// The early-lock-release crash scenario: transaction A's commit record is
// appended (locks released, effects visible to dependents) but the device
// dies before the record flushes. A dependent B reads A's write and commits
// behind it. Required outcome: neither A nor B is acknowledged (B's commit
// LSN is above A's, and the durable watermark stopped below both), and
// recovery from the durable prefix rolls A back entirely.
func TestELRCrashRecoveryAbortsUnflushedCommitter(t *testing.T) {
	e, fd := newFaultAccountsEngine(t)

	setup := e.Begin()
	mustInsert(t, e, setup, 1, 1, "alice", 100)
	if err := e.Commit(setup); err != nil {
		t.Fatalf("setup Commit: %v", err)
	}

	// A writes a row (NoLock, as DORA executors do — its logical locks are
	// the local ones ELR releases) and its change records reach the device;
	// then the device dies, so A's commit record can never flush.
	a := e.Begin()
	if _, err := e.Insert(a, "accounts", account(2, 1, "bob", 50), AccessOptions{NoLock: true}); err != nil {
		t.Fatalf("A Insert: %v", err)
	}
	e.Log().FlushAll()
	fd.FailPermanently(nil)

	aDone := make(chan error, 1)
	bDone := make(chan error, 1)
	dependentSawWrite := false
	e.CommitAsyncEarly(a, func() {
		// The ELR window: A's commit record has an LSN but is not durable.
		// A dependent starts here, reads A's write, and commits on top.
		b := e.Begin()
		row, perr := e.Probe(b, "accounts", pkOf(2), DORARead())
		if perr == nil && len(row) == 4 {
			dependentSawWrite = true
		}
		if _, ierr := e.Insert(b, "accounts", account(3, 1, "carol", 25), AccessOptions{NoLock: true}); ierr != nil {
			bDone <- ierr
			return
		}
		e.CommitAsync(b, func(err error) { bDone <- err })
	}, func(err error) { aDone <- err })

	aErr := <-aDone
	bErr := <-bDone
	if !dependentSawWrite {
		t.Fatal("dependent did not observe the early-released write")
	}
	if aErr == nil {
		t.Fatal("unflushed committer was acknowledged")
	}
	if !errors.Is(aErr, wal.ErrDeviceFailed) {
		t.Fatalf("A's commit error = %v, want ErrDeviceFailed", aErr)
	}
	if bErr == nil {
		t.Fatal("dependent acknowledged although its upstream never became durable")
	}

	// The crash: restart from the durable prefix. A real restart re-reads the
	// device files; here the durable records are replayed through a fresh
	// healthy manager, which reproduces the identical byte stream (LSNs are
	// logical offsets and encoding is deterministic).
	durable, err := e.Log().DurableRecords()
	if err != nil {
		t.Fatalf("DurableRecords: %v", err)
	}
	restart, err := wal.Open(wal.Options{})
	if err != nil {
		t.Fatalf("Open restart log: %v", err)
	}
	defer restart.Close()
	for _, r := range durable {
		if _, err := restart.Append(r); err != nil {
			t.Fatalf("re-appending durable record: %v", err)
		}
	}

	fresh, err := NewWithDevice(Config{BufferPoolFrames: 256}, wal.NewMemDevice())
	if err != nil {
		t.Fatalf("fresh engine: %v", err)
	}
	defer fresh.Close()
	if _, err := fresh.CreateTable(TableDef{
		Name: "accounts",
		Schema: storage.NewSchema(
			storage.Column{Name: "id", Kind: storage.KindInt},
			storage.Column{Name: "branch", Kind: storage.KindInt},
			storage.Column{Name: "owner", Kind: storage.KindString},
			storage.Column{Name: "balance", Kind: storage.KindFloat},
		),
		PrimaryKey:    []string{"id"},
		RoutingFields: []string{"branch"},
	}); err != nil {
		t.Fatalf("CreateTable on fresh engine: %v", err)
	}
	restart.FlushAll()
	stats, err := fresh.Recover(restart)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Losers < 1 {
		t.Fatalf("recovery stats = %+v: the unflushed committer must be a loser", stats)
	}

	check := fresh.Begin()
	if got, perr := fresh.Probe(check, "accounts", pkOf(1), Conventional()); perr != nil || got[3].Float != 100 {
		t.Fatalf("committed setup row = %v, %v", got, perr)
	}
	if _, perr := fresh.Probe(check, "accounts", pkOf(2), Conventional()); !errors.Is(perr, ErrNotFound) {
		t.Fatalf("unflushed committer's write survived recovery (err=%v)", perr)
	}
	if _, perr := fresh.Probe(check, "accounts", pkOf(3), Conventional()); !errors.Is(perr, ErrNotFound) {
		t.Fatalf("unacknowledged dependent's write survived recovery (err=%v)", perr)
	}
}

// gatedDevice holds each log-device write while gated, announcing it on
// entered and proceeding once release is signalled, so a test can order
// group-commit flushes exactly instead of sleeping. open lets every held and
// future write through, so a failing test can still close its engine.
type gatedDevice struct {
	wal.Device
	gated   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (d *gatedDevice) Append(chunk []byte, firstLSN wal.LSN) error {
	if d.gated.Load() {
		d.entered <- struct{}{}
		<-d.release
	}
	return d.Device.Append(chunk, firstLSN)
}

func (d *gatedDevice) open() {
	d.gated.Store(false)
	close(d.release)
}

// Early lock release must not break snapshot atomicity. T1 updates rows 1
// and 3, appends its COMMIT and releases early while its flush is held on
// the device; a dependent T2 updates T1's row 1 plus row 2 and commits
// behind it, in a separate flush. The test also holds T1's post-commit
// processing (finishCommit waits on T1's mutex), forcing T2's to finish
// first: the interleaving that tore snapshots when visibility was assigned
// there. Snapshots pinned before either flush, between the two flushes and
// after both must each see a prefix of the commit order: never T2's writes
// without T1's.
func TestELRVisibilityFollowsCommitOrder(t *testing.T) {
	// entered holds one slot per gated write (T1's flush, then T2's), so a
	// failing test never leaves the flusher blocked on the announcement.
	dev := &gatedDevice{Device: wal.NewMemDevice(), entered: make(chan struct{}, 2), release: make(chan struct{})}
	e, err := NewWithDevice(Config{BufferPoolFrames: 256}, dev)
	if err != nil {
		t.Fatalf("NewWithDevice: %v", err)
	}
	defer e.Close()
	defer dev.open()
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	setup := e.Begin()
	for id := int64(1); id <= 3; id++ {
		mustInsert(t, e, setup, id, 1, "owner", float64(100*id))
	}
	if err := e.Commit(setup); err != nil {
		t.Fatalf("setup Commit: %v", err)
	}
	add := func(txn *Txn, id int64, delta float64) {
		t.Helper()
		if err := e.Update(txn, "accounts", pkOf(id), AccessOptions{NoLock: true}, func(tu storage.Tuple) (storage.Tuple, error) {
			tu[3] = storage.FloatValue(tu[3].Float + delta)
			return tu, nil
		}); err != nil {
			t.Fatalf("Update %d: %v", id, err)
		}
	}
	// read returns the balances of rows 1-3 a fresh snapshot sees.
	read := func() [3]float64 {
		t.Helper()
		snap := e.BeginSnapshot()
		defer snap.Release()
		var out [3]float64
		for i := range out {
			tu, err := snap.Probe("accounts", pkOf(int64(i+1)))
			if err != nil {
				t.Fatalf("snapshot probe %d: %v", i+1, err)
			}
			out[i] = tu[3].Float
		}
		return out
	}

	dev.gated.Store(true)
	t1 := e.Begin()
	add(t1, 1, 10)
	add(t1, 3, 10)
	released := false
	t1Done := make(chan error, 1)
	e.CommitAsyncEarly(t1, func() { released = true }, func(err error) { t1Done <- err })
	if !released {
		t.Fatal("T1 did not release early")
	}
	<-dev.entered // T1's flush is now held on the device
	t1.mu.Lock()  // and so, once the flush lands, is T1's finishCommit

	// The dependent reads T1's early-released write and commits behind it;
	// its records miss the held flush and form the next one.
	t2 := e.Begin()
	add(t2, 1, 1)
	add(t2, 2, 1)
	t2Done := make(chan error, 1)
	e.CommitAsync(t2, func(err error) { t2Done <- err })

	if got := read(); got != [3]float64{100, 200, 300} {
		t.Fatalf("snapshot before any flush = %v, want [100 200 300]", got)
	}
	dev.release <- struct{}{} // T1's flush lands
	<-dev.entered             // the flusher has moved on to T2's flush
	if got := read(); got != [3]float64{110, 200, 310} {
		t.Fatalf("snapshot between the flushes = %v, want [110 200 310] (T1 only)", got)
	}
	dev.gated.Store(false)
	dev.release <- struct{}{} // T2's flush lands
	if err := <-t2Done; err != nil {
		t.Fatalf("T2 commit: %v", err)
	}
	if got := read(); got != [3]float64{111, 201, 310} {
		t.Fatalf("snapshot after both flushes, T2 finished before T1 = %v, want [111 201 310]", got)
	}
	t1.mu.Unlock()
	if err := <-t1Done; err != nil {
		t.Fatalf("T1 commit: %v", err)
	}
	if got := read(); got != [3]float64{111, 201, 310} {
		t.Fatalf("snapshot after both commits finished = %v, want [111 201 310]", got)
	}
}
