package engine

import (
	"bytes"
	"fmt"
	"sync"

	"dora/internal/lockmgr"
	"dora/internal/storage"
	"dora/internal/wal"
)

// TxnState is the lifecycle state of a transaction.
type TxnState int

const (
	// TxnActive is a running transaction.
	TxnActive TxnState = iota
	// TxnCommitted is a successfully committed transaction.
	TxnCommitted
	// TxnAborted is a rolled-back transaction.
	TxnAborted
)

// String returns the state name.
func (s TxnState) String() string {
	switch s {
	case TxnActive:
		return "active"
	case TxnCommitted:
		return "committed"
	case TxnAborted:
		return "aborted"
	default:
		return fmt.Sprintf("TxnState(%d)", int(s))
	}
}

// Txn is a transaction context. Under DORA a transaction's actions execute on
// several executor threads concurrently, so the context is safe for concurrent
// use by multiple goroutines.
type Txn struct {
	id     uint64
	engine *Engine

	// chainMu serializes the transaction's log appends so its PrevLSN chain
	// stays well-formed even when several executor threads log on its behalf
	// concurrently. The chain lives here — the log manager tracks no
	// per-transaction state, which is what keeps its append path free of a
	// global chain-map mutex.
	chainMu sync.Mutex
	lastLSN wal.LSN

	mu    sync.Mutex
	state TxnState
	// undo holds the transaction's change records in append order; rollback
	// walks it backwards. It mirrors the transaction's log chain without
	// re-reading the log device.
	undo []*wal.Record
	// pending tracks the version-chain nodes this transaction installed, for
	// commit-LSN stamping and rollback popping (mvcc.go).
	pending []pendingVersion
	// cleanups holds the flagged-index-entry removals of this transaction's
	// deletes; commit moves them onto the engine's LSN-stamped queue (the
	// pruner runs them once no snapshot can still need the flagged entries),
	// abort drops them.
	cleanups []indexCleanup
}

// recordPool recycles wal.Record allocations: the ops path builds one record
// per mutation and a write transaction three markers (BEGIN, COMMIT, END),
// which at high throughput is the dominant allocation on the critical path.
// A record may be recycled as soon as Append returns — the manager encodes it
// into the log buffer synchronously and retains no reference.
var recordPool = sync.Pool{New: func() any { return new(wal.Record) }}

// newRecord returns a zeroed record from the pool.
func newRecord() *wal.Record { return recordPool.Get().(*wal.Record) }

// recycleRecord zeroes a record and returns it to the pool.
func recycleRecord(r *wal.Record) {
	*r = wal.Record{}
	recordPool.Put(r)
}

// appendTxn appends one record on the transaction's behalf, threading the
// transaction's PrevLSN chain through it. The transaction's BEGIN is written
// here, just before its first record: a transaction that never changes
// anything never touches the log (see Begin). The BEGIN goes through
// wal.Manager.Append like any record, which registers the transaction in the
// log's active set atomically against a checkpoint cut.
func (e *Engine) appendTxn(t *Txn, r *wal.Record) (wal.LSN, error) {
	t.chainMu.Lock()
	defer t.chainMu.Unlock()
	if t.lastLSN == wal.NilLSN {
		b := newRecord()
		b.Txn, b.Type = t.walID(), wal.RecBegin
		lsn, err := e.log.Append(b)
		recycleRecord(b)
		if err != nil {
			return lsn, err
		}
		t.lastLSN = lsn
	}
	r.PrevLSN = t.lastLSN
	lsn, err := e.log.Append(r)
	if err == nil {
		t.lastLSN = lsn
	}
	return lsn, err
}

// appendMarker logs one pooled bodyless record (COMMIT/ABORT/END) on the
// transaction's chain and recycles it.
func (e *Engine) appendMarker(t *Txn, typ wal.RecordType) (wal.LSN, error) {
	r := newRecord()
	r.Txn, r.Type = t.walID(), typ
	lsn, err := e.appendTxn(t, r)
	recycleRecord(r)
	return lsn, err
}

// appendCommit appends a write transaction's COMMIT record (read-only
// transactions append none; see Commit). The record's LSN is the engine's
// one commit order, serving durability and visibility alike: the
// transaction appends under the commit latch and, in the same critical
// section, stamps every version it installed with that LSN and queues its
// index cleanups at it. Whoever takes the latch afterwards (BeginSnapshot,
// the pruner, a checkpoint cut) therefore finds every commit record in the
// log already stamped.
func (e *Engine) appendCommit(t *Txn) (wal.LSN, error) {
	t.mu.Lock()
	pending, cleanups := t.pending, t.cleanups
	t.mu.Unlock()
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	lsn, err := e.appendMarker(t, wal.RecCommit)
	if err != nil {
		return lsn, err
	}
	for _, p := range pending {
		p.v.commit.Store(uint64(lsn))
	}
	e.enqueueCleanups(cleanups, lsn)
	return lsn, nil
}

// Begin starts a new transaction. It appends nothing: the BEGIN record is
// written lazily, just before the transaction's first change record
// (appendTxn), so a read-only transaction never touches the log. If the
// engine is Failed or its log has been closed, the returned transaction is
// already aborted and every operation on it fails with ErrTxnDone. On a
// degraded engine (log device failed permanently) it starts active and stays
// unlogged: reads work, state-changing operations are refused with
// ErrReadOnly, and a read-only commit succeeds — degraded read-only service
// instead of a dead engine.
func (e *Engine) Begin() *Txn {
	id := e.nextTxn.Add(1)
	t := &Txn{id: id, engine: e, state: TxnActive}
	if Health(e.health.Load()) == HealthFailed || e.log.Closed() {
		t.state = TxnAborted
	}
	return t
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// State returns the transaction's current state.
func (t *Txn) State() TxnState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Active reports whether the transaction can still execute operations.
func (t *Txn) Active() bool { return t.State() == TxnActive }

func (t *Txn) lockID() lockmgr.TxnID { return lockmgr.TxnID(t.id) }
func (t *Txn) walID() wal.TxnID      { return wal.TxnID(t.id) }

// recordChange remembers a change record for rollback.
func (t *Txn) recordChange(r *wal.Record) {
	t.mu.Lock()
	t.undo = append(t.undo, r)
	t.mu.Unlock()
}

// addPending remembers a version-chain node the transaction installed.
func (t *Txn) addPending(tbl *Table, rid storage.RID, v *version) {
	t.mu.Lock()
	t.pending = append(t.pending, pendingVersion{tbl: tbl, rid: rid, v: v})
	t.mu.Unlock()
}

// addCleanup remembers a delete's deferred flagged-index-entry removal.
func (t *Txn) addCleanup(tbl *Table, before storage.Tuple, rid storage.RID) {
	t.mu.Lock()
	t.cleanups = append(t.cleanups, indexCleanup{tbl: tbl, before: before, rid: rid})
	t.mu.Unlock()
}

// readOnly reports whether the transaction has made no changes — nothing to
// undo, no versions installed, no deferred cleanups. A read-only transaction
// commits without a commit record (see Commit), which also lets it commit on
// a degraded (read-only) engine whose log device is gone.
func (t *Txn) readOnly() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.undo) == 0 && len(t.pending) == 0 && len(t.cleanups) == 0
}

// logged reports whether the transaction has written its BEGIN record. Only
// a logged transaction appends the ABORT and END records that close it.
func (t *Txn) logged() bool {
	t.chainMu.Lock()
	defer t.chainMu.Unlock()
	return t.lastLSN != wal.NilLSN
}

func (t *Txn) ensureActive() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != TxnActive {
		return fmt.Errorf("%w (state %s)", ErrTxnDone, t.state)
	}
	return nil
}

// Commit makes the transaction durable: it forces the log up to the commit
// record (riding the group-commit flusher's next device write) and releases
// the transaction's centralized locks. The caller blocks anyway, so it waits
// on the flush inline rather than paying CommitAsync's relay goroutine.
//
// A read-only transaction appends no COMMIT record, and no END either, as it
// wrote no BEGIN (a change record the log refused leaves a BEGIN behind only
// on a failed or closed log). It waits instead until the log is durable up
// to its read point, the last byte appended before it commits (see
// commitPoint), and returns at once when that is already durable.
func (e *Engine) Commit(t *Txn) error {
	if err := t.ensureActive(); err != nil {
		return err
	}
	lsn, err := e.commitPoint(t)
	if err != nil {
		e.noteLogError(err)
		return fmt.Errorf("engine: logging commit of txn %d: %w", t.id, err)
	}
	if wait := e.log.FlushAsync(lsn); wait != nil {
		<-wait
	}
	// A failed device wakes waiters without making them durable; never
	// acknowledge a commit the log cannot vouch for. Durability is judged by
	// this commit's own LSN against the watermark (which only advances on
	// successful write+sync), not by the global error latch — a later
	// flush's failure must not un-acknowledge an earlier durable commit. The
	// transaction stays active so the caller can still roll it back in
	// memory; its stamped versions stay invisible meanwhile, as no snapshot
	// horizon can pass a commit LSN the log never made durable.
	if err := e.commitDurable(lsn); err != nil {
		e.noteLogError(err)
		return fmt.Errorf("engine: commit of txn %d not durable: %w", t.id, err)
	}
	e.finishCommit(t)
	return nil
}

// commitDurable reports whether the log can vouch for the record at the
// given LSN (a commit record, or a checkpoint cut) after its flush wakeup.
func (e *Engine) commitDurable(lsn wal.LSN) error {
	if e.log.FlushedLSN() >= lsn {
		return nil
	}
	if err := e.log.Err(); err != nil {
		return err
	}
	return wal.ErrClosed
}

// commitPoint fixes the transaction's place in the commit order and returns
// the LSN the log must make durable before the commit is acknowledged. A
// write transaction appends its COMMIT record (appendCommit). A read-only
// transaction appends nothing; its point is its read point, the last byte
// the log has assigned. Whatever it read was written by a transaction whose
// COMMIT record already had its LSN — under early lock release a writer's
// locks are released only after its COMMIT append, and otherwise only after
// its COMMIT is durable — so that COMMIT sits at or below the read point.
// Waiting for it makes a read-only commit never acknowledge data that a
// crash, or a failed flush, could roll back, while writing nothing itself:
// Aether's rule for read-only transactions under early lock release (Johnson
// et al., PVLDB 2010).
//
// On an engine already degraded by a failed log device a read-only commit
// waits for nothing (NilLSN is always durable) and succeeds: degraded
// read-only service. The check reads the health state, not the log, so a
// failure the engine has not yet observed makes the commit wait and report
// the failure like a write commit would.
func (e *Engine) commitPoint(t *Txn) (wal.LSN, error) {
	if !t.readOnly() {
		return e.appendCommit(t)
	}
	if e.Health() == HealthDegradedReadOnly {
		return wal.NilLSN, nil
	}
	return e.log.CurrentLSN() - 1, nil
}

// CommitAsync initiates a commit without blocking the caller on the log
// flush: it appends the commit record and registers with the group-commit
// flusher; once the record is durable, post-commit processing (centralized
// lock release, the END record) runs and done(err) is invoked, usually on a
// background goroutine. This is what lets a DORA executor dispatch a commit
// and immediately continue with other transactions' actions.
func (e *Engine) CommitAsync(t *Txn, done func(error)) {
	e.CommitAsyncEarly(t, nil, done)
}

// CommitAsyncEarly is CommitAsync with an early-release hook for DORA's
// early lock release: early() runs synchronously as soon as the commit record
// has an assigned LSN — before the record is durable — on every path that
// will eventually call done(nil). At that point the transaction's serial
// position is fixed: the flusher makes LSNs durable strictly in order, so any
// transaction that later observes this one's effects appends its own commit
// record at a higher LSN and cannot become durable (or acknowledge) first.
// Releasing the transaction's local locks in early() is therefore safe — a
// dependent can run, commit, and even reach its own early() while this
// transaction awaits the flush, but its durability ack necessarily trails
// ours. The same order governs visibility: a snapshot's horizon is a durable
// LSN, so one that sees the dependent's commit sees this one's too.
// early() never runs on a path that reports an error: a commit refused at
// the append keeps its locks for the caller's rollback. A read-only
// transaction (see Commit) runs early() at once and completes inline when
// its read point is already durable.
func (e *Engine) CommitAsyncEarly(t *Txn, early func(), done func(error)) {
	if err := t.ensureActive(); err != nil {
		done(err)
		return
	}
	lsn, err := e.commitPoint(t)
	if err != nil {
		e.noteLogError(err)
		done(fmt.Errorf("engine: logging commit of txn %d: %w", t.id, err))
		return
	}
	if early != nil {
		early()
	}
	wait := e.log.FlushAsync(lsn)
	if wait == nil {
		e.finishCommit(t)
		done(nil)
		return
	}
	go func() {
		<-wait
		if err := e.commitDurable(lsn); err != nil {
			e.noteLogError(err)
			done(fmt.Errorf("engine: commit of txn %d not durable: %w", t.id, err))
			return
		}
		e.finishCommit(t)
		done(nil)
	}()
}

// finishCommit runs post-commit processing once the commit record (or a
// read-only commit's read point) is durable. The versions were already
// stamped at the append (appendCommit); what is left is to release the
// centralized locks and, for a logged transaction, append the END record
// (best-effort: recovery treats the commit record as authoritative).
func (e *Engine) finishCommit(t *Txn) {
	t.mu.Lock()
	undo := t.undo
	t.pending, t.cleanups, t.undo = nil, nil, nil
	t.state = TxnCommitted
	t.mu.Unlock()
	// The change records were only retained for a rollback that can no longer
	// happen; recycle them.
	for _, r := range undo {
		recycleRecord(r)
	}
	e.lm.ReleaseAll(t.lockID())
	if t.logged() {
		e.appendMarker(t, wal.RecEnd) //nolint:errcheck
	}
}

// Abort rolls the transaction back: every change is undone youngest-first with
// compensation log records, then the transaction's locks are released. A
// transaction that never wrote its BEGIN has nothing to undo and aborts
// without an ABORT or END record.
func (e *Engine) Abort(t *Txn) error {
	if err := t.ensureActive(); err != nil {
		return err
	}
	// Rollback proceeds in memory even when the log is closed (the undo list
	// is in hand); the compensation records below are then best-effort.
	logged := t.logged()
	if logged {
		e.appendMarker(t, wal.RecAbort) //nolint:errcheck
	}

	t.mu.Lock()
	undo := t.undo
	pending := t.pending
	t.undo = nil
	t.pending = nil
	t.cleanups = nil
	t.state = TxnAborted
	t.mu.Unlock()

	var firstErr error
	for i := len(undo) - 1; i >= 0; i-- {
		r := undo[i]
		if err := e.undoRecord(r); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("engine: rollback of txn %d: %w", t.id, err)
		}
		clr := newRecord()
		clr.Txn = t.walID()
		clr.Type = wal.RecCLR
		clr.TableID = r.TableID
		clr.RID = r.RID
		clr.After = r.Before
		clr.UndoNext = r.PrevLSN
		e.appendTxn(t, clr) //nolint:errcheck
		recycleRecord(clr)
	}
	for _, r := range undo {
		recycleRecord(r)
	}
	// Pop the transaction's versions only after the undo loop has restored
	// the heap: a snapshot reader that finds no chain trusts the heap image
	// as committed (mvcc.go ordering rule 1). After a commit whose flush was
	// refused they are already stamped with its never-durable commit LSN, so
	// the pop goes by installing transaction, not by the pending stamp.
	for _, p := range pending {
		p.tbl.versions.popTxn(p.rid, t.id)
	}
	e.lm.ReleaseAll(t.lockID())
	if logged {
		e.appendMarker(t, wal.RecEnd) //nolint:errcheck
	}
	if col := e.Collector(); col != nil {
		col.TxnAborted()
	}
	// A rollback that could not undo a change leaves in-memory state torn;
	// nothing the engine serves from here on can be trusted.
	if firstErr != nil {
		e.markFailed()
	}
	return firstErr
}

// undoRecord reverses the effect of one change record during rollback.
func (e *Engine) undoRecord(r *wal.Record) error {
	tbl := e.tableByID(TableID(r.TableID))
	if tbl == nil {
		return fmt.Errorf("undo references unknown table %d", r.TableID)
	}
	switch r.Type {
	case wal.RecInsert:
		after, err := storage.DecodeTuple(r.After)
		if err != nil {
			return err
		}
		tbl.removeIndexEntries(after, r.RID)
		return tbl.heap.delete(r.RID)
	case wal.RecDelete:
		before, err := storage.DecodeTuple(r.Before)
		if err != nil {
			return err
		}
		if err := tbl.heap.insertAt(r.RID, r.Before); err != nil {
			return err
		}
		tbl.markIndexEntriesDeleted(before, r.RID, false)
		return nil
	case wal.RecUpdate:
		before, err := storage.DecodeTuple(r.Before)
		if err != nil {
			return err
		}
		after, err := storage.DecodeTuple(r.After)
		if err != nil {
			return err
		}
		if err := tbl.heap.update(r.RID, r.Before); err != nil {
			return err
		}
		if keysDiffer(tbl, before, after) {
			return tbl.replaceIndexEntries(after, before, r.RID)
		}
		return nil
	default:
		return nil
	}
}

// keysDiffer reports whether any index key or the routing key of the table
// differs between the two tuple versions.
func keysDiffer(tbl *Table, a, b storage.Tuple) bool {
	if !bytes.Equal(tbl.PrimaryKey(a), tbl.PrimaryKey(b)) {
		return true
	}
	if !bytes.Equal(tbl.RoutingKey(a), tbl.RoutingKey(b)) {
		return true
	}
	for _, si := range tbl.secondaries {
		ka := storage.EncodeKey(a.Project(si.keyCols)...)
		kb := storage.EncodeKey(b.Project(si.keyCols)...)
		if !bytes.Equal(ka, kb) {
			return true
		}
	}
	return false
}
