package engine

import (
	"errors"
	"fmt"

	"dora/internal/btree"
	"dora/internal/lockmgr"
	"dora/internal/storage"
	"dora/internal/wal"
)

// AccessOptions select how a record operation coordinates with the
// centralized lock manager, mirroring the flags the paper adds to Shore-MT's
// record access and iterator functions (§4.3).
type AccessOptions struct {
	// NoLock skips logical locking entirely. DORA probes and updates rely on
	// the owning executor's thread-local lock table instead.
	NoLock bool
	// RowLockOnly acquires only the row-level lock, not the intention-lock
	// hierarchy. DORA record inserts and deletes use it to coordinate page
	// slot reuse across executors (§4.2.1).
	RowLockOnly bool
	// WorkerID attributes the access in record-access traces (Figure 10).
	WorkerID int
	// Snapshot routes reads (Probe, ScanPrefix, ScanTable) through the given
	// horizon-pinned snapshot instead of the locked heap path; writes ignore
	// it. Snapshot reads take no lock-manager locks at all.
	Snapshot *Snapshot
}

// Conventional returns the options of a conventionally executed access: full
// hierarchical locking.
func Conventional() AccessOptions { return AccessOptions{} }

// DORARead returns the options DORA uses for probes and updates.
func DORARead() AccessOptions { return AccessOptions{NoLock: true} }

// DORAInsertDelete returns the options DORA uses for inserts and deletes.
func DORAInsertDelete() AccessOptions { return AccessOptions{RowLockOnly: true} }

// IndexMatch is one secondary-index match: the heap RID plus the routing-field
// key stored in the leaf entry, which DORA uses to pick the owning executor.
type IndexMatch struct {
	RID     storage.RID
	Routing storage.Key
}

// lockErr converts lock-manager failures into engine errors that callers
// treat as "abort and retry".
func lockErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, lockmgr.ErrDeadlock) || errors.Is(err, lockmgr.ErrTimeout) {
		return fmt.Errorf("engine: %w", err)
	}
	return err
}

// Probe reads the record with the given primary key.
func (e *Engine) Probe(t *Txn, table string, pk storage.Key, opt AccessOptions) (storage.Tuple, error) {
	if opt.Snapshot != nil {
		return opt.Snapshot.Probe(table, pk)
	}
	if err := t.ensureActive(); err != nil {
		return nil, err
	}
	tbl, err := e.Table(table)
	if err != nil {
		return nil, err
	}
	entry, ok := tbl.primary.SearchUnique(pk)
	if !ok {
		return nil, ErrNotFound
	}
	return e.probeRID(t, tbl, entry.RID, lockmgr.ModeS, opt)
}

// ProbeRID reads the record at the given RID (the access path used after a
// secondary-index lookup).
func (e *Engine) ProbeRID(t *Txn, table string, rid storage.RID, opt AccessOptions) (storage.Tuple, error) {
	if err := t.ensureActive(); err != nil {
		return nil, err
	}
	tbl, err := e.Table(table)
	if err != nil {
		return nil, err
	}
	return e.probeRID(t, tbl, rid, lockmgr.ModeS, opt)
}

func (e *Engine) probeRID(t *Txn, tbl *Table, rid storage.RID, mode lockmgr.Mode, opt AccessOptions) (storage.Tuple, error) {
	if !opt.NoLock {
		if opt.RowLockOnly {
			if err := e.lm.Acquire(t.lockID(), lockmgr.RowLock(uint32(tbl.id), rid.Key()), mode); err != nil {
				return nil, lockErr(err)
			}
		} else if err := e.lm.LockRow(t.lockID(), uint32(tbl.id), rid.Key(), mode); err != nil {
			return nil, lockErr(err)
		}
	}
	data, err := tbl.heap.get(rid)
	if err != nil {
		return nil, err
	}
	tuple, err := storage.DecodeTuple(data)
	if err != nil {
		return nil, err
	}
	e.emitTrace(opt.WorkerID, tbl, tuple, rid)
	return tuple, nil
}

// Update applies fn to the record with the given primary key and stores the
// result. fn receives a copy of the current tuple and returns the new version;
// it runs under the record's row latch, so it must not call into the engine.
func (e *Engine) Update(t *Txn, table string, pk storage.Key, opt AccessOptions, fn func(storage.Tuple) (storage.Tuple, error)) error {
	if err := t.ensureActive(); err != nil {
		return err
	}
	tbl, err := e.Table(table)
	if err != nil {
		return err
	}
	entry, ok := tbl.primary.SearchUnique(pk)
	if !ok {
		return ErrNotFound
	}
	return e.updateRID(t, tbl, entry.RID, opt, fn)
}

// UpdateRID applies fn to the record at the given RID.
func (e *Engine) UpdateRID(t *Txn, table string, rid storage.RID, opt AccessOptions, fn func(storage.Tuple) (storage.Tuple, error)) error {
	if err := t.ensureActive(); err != nil {
		return err
	}
	tbl, err := e.Table(table)
	if err != nil {
		return err
	}
	return e.updateRID(t, tbl, rid, opt, fn)
}

func (e *Engine) updateRID(t *Txn, tbl *Table, rid storage.RID, opt AccessOptions, fn func(storage.Tuple) (storage.Tuple, error)) error {
	if !opt.NoLock {
		if opt.RowLockOnly {
			if err := e.lm.Acquire(t.lockID(), lockmgr.RowLock(uint32(tbl.id), rid.Key()), lockmgr.ModeX); err != nil {
				return lockErr(err)
			}
		} else if err := e.lm.LockRow(t.lockID(), uint32(tbl.id), rid.Key(), lockmgr.ModeX); err != nil {
			return lockErr(err)
		}
	}
	before, after, err := e.rewriteRecord(t, tbl, rid, fn)
	if err != nil {
		return err
	}
	if keysDiffer(tbl, before, after) {
		if err := tbl.replaceIndexEntries(before, after, rid); err != nil {
			return err
		}
	}
	e.emitTrace(opt.WorkerID, tbl, after, rid)
	return nil
}

// rewriteRecord reads the record at rid, applies fn, logs the change, and
// stores the result as one step under the record's row latch. Writers of one
// record are normally serialized by a lock (centralized for Baseline, the
// executor's local lock for DORA), but when both systems run over the same
// engine a DORA action and a Baseline transaction hold different locks on
// the same record; without the latch their read-modify-writes interleave and
// one update is lost.
func (e *Engine) rewriteRecord(t *Txn, tbl *Table, rid storage.RID, fn func(storage.Tuple) (storage.Tuple, error)) (before, after storage.Tuple, err error) {
	latch := &tbl.rowLatches[rid.Key()%uint64(len(tbl.rowLatches))]
	latch.Lock()
	defer latch.Unlock()
	beforeBytes, err := tbl.heap.get(rid)
	if err != nil {
		return nil, nil, err
	}
	before, err = storage.DecodeTuple(beforeBytes)
	if err != nil {
		return nil, nil, err
	}
	after, err = fn(before.Clone())
	if err != nil {
		return nil, nil, err
	}
	if err := tbl.def.Schema.Validate(after); err != nil {
		return nil, nil, err
	}
	afterBytes := after.Encode(nil)
	rec := newRecord()
	rec.Txn = t.walID()
	rec.Type = wal.RecUpdate
	rec.TableID = uint32(tbl.id)
	rec.RID = rid
	rec.Before = beforeBytes
	rec.After = afterBytes
	if _, err := e.logWrite(t, rec); err != nil {
		recycleRecord(rec)
		return nil, nil, err
	}
	t.recordChange(rec)
	// Install the new version before touching the heap (mvcc.go ordering
	// rule 1): a snapshot reader that sees the uncommitted heap bytes is
	// guaranteed to also see the chain and resolve through it.
	t.addPending(tbl, rid, tbl.versions.install(rid, t.id, afterBytes, beforeBytes))
	if err := tbl.heap.update(rid, afterBytes); err != nil {
		return nil, nil, err
	}
	return before, after, nil
}

// Insert adds a new record and returns its RID. Even under DORA the new
// record's RID is locked through the centralized lock manager (row-level only)
// to coordinate page-slot reuse across executors.
func (e *Engine) Insert(t *Txn, table string, tuple storage.Tuple, opt AccessOptions) (storage.RID, error) {
	if err := t.ensureActive(); err != nil {
		return storage.InvalidRID, err
	}
	tbl, err := e.Table(table)
	if err != nil {
		return storage.InvalidRID, err
	}
	if err := tbl.def.Schema.Validate(tuple); err != nil {
		return storage.InvalidRID, err
	}
	data := tuple.Encode(nil)
	rid, extent, err := tbl.heap.insert(data)
	if err != nil {
		return storage.InvalidRID, err
	}
	if extent >= 0 {
		// Space management: allocating a new extent of pages takes a
		// higher-level lock regardless of execution mode (the one non-row
		// Baseline-and-DORA lock visible in Figure 5's TPC-B census).
		if err := e.lm.Acquire(t.lockID(), lockmgr.ExtentLock(uint32(tbl.id), uint64(extent)), lockmgr.ModeX); err != nil {
			tbl.heap.delete(rid)
			return storage.InvalidRID, lockErr(err)
		}
	}
	if !opt.NoLock {
		var lerr error
		if opt.RowLockOnly {
			lerr = e.lm.Acquire(t.lockID(), lockmgr.RowLock(uint32(tbl.id), rid.Key()), lockmgr.ModeX)
		} else {
			lerr = e.lm.LockRow(t.lockID(), uint32(tbl.id), rid.Key(), lockmgr.ModeX)
		}
		if lerr != nil {
			tbl.heap.delete(rid)
			return storage.InvalidRID, lockErr(lerr)
		}
	}
	// Install the pending version before the index entries exist (mvcc.go
	// ordering rule 2): once an entry can lead a snapshot reader here, the
	// chain must already hide the uncommitted heap bytes. If the slot reuses
	// a deleted record whose flagged entries still stand, the new node
	// stacks on the old chain, so those relics keep resolving correctly too.
	t.addPending(tbl, rid, tbl.versions.install(rid, t.id, data, nil))
	if err := tbl.insertIndexEntries(tuple, rid); err != nil {
		tbl.heap.delete(rid)
		tbl.versions.popTxn(rid, t.id)
		return storage.InvalidRID, err
	}
	rec := newRecord()
	rec.Txn = t.walID()
	rec.Type = wal.RecInsert
	rec.TableID = uint32(tbl.id)
	rec.RID = rid
	rec.After = data
	if _, err := e.logWrite(t, rec); err != nil {
		recycleRecord(rec)
		tbl.removeIndexEntries(tuple, rid)
		tbl.heap.delete(rid)
		tbl.versions.popTxn(rid, t.id)
		return storage.InvalidRID, err
	}
	t.recordChange(rec)
	e.emitTrace(opt.WorkerID, tbl, tuple, rid)
	return rid, nil
}

// Delete removes the record with the given primary key. The record's index
// entries are flagged deleted immediately (so concurrent secondary probes see
// the pending delete, §4.2.2) and physically removed only when the
// transaction commits.
func (e *Engine) Delete(t *Txn, table string, pk storage.Key, opt AccessOptions) error {
	if err := t.ensureActive(); err != nil {
		return err
	}
	tbl, err := e.Table(table)
	if err != nil {
		return err
	}
	entry, ok := tbl.primary.SearchUnique(pk)
	if !ok {
		return ErrNotFound
	}
	rid := entry.RID
	if !opt.NoLock {
		var lerr error
		if opt.RowLockOnly {
			lerr = e.lm.Acquire(t.lockID(), lockmgr.RowLock(uint32(tbl.id), rid.Key()), lockmgr.ModeX)
		} else {
			lerr = e.lm.LockRow(t.lockID(), uint32(tbl.id), rid.Key(), lockmgr.ModeX)
		}
		if lerr != nil {
			return lockErr(lerr)
		}
	}
	beforeBytes, err := tbl.heap.get(rid)
	if err != nil {
		return err
	}
	before, err := storage.DecodeTuple(beforeBytes)
	if err != nil {
		return err
	}
	rec := newRecord()
	rec.Txn = t.walID()
	rec.Type = wal.RecDelete
	rec.TableID = uint32(tbl.id)
	rec.RID = rid
	rec.Before = beforeBytes
	if _, err := e.logWrite(t, rec); err != nil {
		recycleRecord(rec)
		return err
	}
	t.recordChange(rec)
	// Install the delete version (nil data) before removing the heap image
	// (mvcc.go ordering rule 1); snapshots pinned before the commit keep
	// resolving the before-image through the chain's base node.
	t.addPending(tbl, rid, tbl.versions.install(rid, t.id, nil, beforeBytes))
	if err := tbl.heap.delete(rid); err != nil {
		return err
	}
	tbl.markIndexEntriesDeleted(before, rid, true)
	// Physical removal of the flagged entries is deferred past commit, onto
	// the pruner's LSN-stamped queue: the flagged entry is the only index path by
	// which an old snapshot reaches the record's version chain, so it must
	// outlive every snapshot pinned below the delete's commit LSN.
	t.addCleanup(tbl, before, rid)
	e.emitTrace(opt.WorkerID, tbl, before, rid)
	return nil
}

// SecondaryLookup returns the matches of a secondary index probe: RIDs and
// routing keys, without touching the heap. DORA uses it to resolve secondary
// actions; the Baseline follows it with locked ProbeRID calls.
func (e *Engine) SecondaryLookup(t *Txn, table, index string, key storage.Key, opt AccessOptions) ([]IndexMatch, error) {
	if err := t.ensureActive(); err != nil {
		return nil, err
	}
	tbl, err := e.Table(table)
	if err != nil {
		return nil, err
	}
	si, err := tbl.secondary(index)
	if err != nil {
		return nil, err
	}
	entries := si.tree.Search(key)
	out := make([]IndexMatch, 0, len(entries))
	for _, en := range entries {
		out = append(out, IndexMatch{RID: en.RID, Routing: en.Routing})
	}
	return out, nil
}

// ScanPrefix visits, in key order, every live record whose primary key starts
// with the given prefix (for example all CALL_FORWARDING rows of one
// subscriber). Under conventional execution each visited row is locked in
// shared mode; under DORA the caller's local lock on the routing prefix covers
// the range.
func (e *Engine) ScanPrefix(t *Txn, table string, prefix storage.Key, opt AccessOptions, fn func(storage.Tuple) bool) error {
	if opt.Snapshot != nil {
		return opt.Snapshot.ScanPrefix(table, prefix, fn)
	}
	if err := t.ensureActive(); err != nil {
		return err
	}
	tbl, err := e.Table(table)
	if err != nil {
		return err
	}
	var rids []storage.RID
	tbl.primary.ScanPrefix(prefix, func(en btree.Entry) bool {
		rids = append(rids, en.RID)
		return true
	})
	for _, rid := range rids {
		tuple, err := e.probeRID(t, tbl, rid, lockmgr.ModeS, opt)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue // deleted between index scan and heap read
			}
			return err
		}
		if !fn(tuple) {
			return nil
		}
	}
	return nil
}

// ScanTable visits every live record of the table in primary-key order,
// invoking fn until it returns false. A conventional scan takes a table S
// lock; a DORA "multi-partition" scan instead enqueues actions on every
// executor, so it passes NoLock.
func (e *Engine) ScanTable(t *Txn, table string, opt AccessOptions, fn func(storage.Tuple) bool) error {
	if opt.Snapshot != nil {
		return opt.Snapshot.ScanTable(table, fn)
	}
	if err := t.ensureActive(); err != nil {
		return err
	}
	tbl, err := e.Table(table)
	if err != nil {
		return err
	}
	if !opt.NoLock {
		if err := e.lm.LockTable(t.lockID(), uint32(tbl.id), lockmgr.ModeS); err != nil {
			return lockErr(err)
		}
	}
	return e.scanHeapInKeyOrder(tbl, opt, fn)
}

// scanHeapInKeyOrder walks the primary index and reads each record.
func (e *Engine) scanHeapInKeyOrder(tbl *Table, opt AccessOptions, fn func(storage.Tuple) bool) error {
	_ = opt
	var outerErr error
	tbl.primaryScan(func(rid storage.RID) bool {
		data, err := tbl.heap.get(rid)
		if err != nil {
			outerErr = err
			return false
		}
		tuple, err := storage.DecodeTuple(data)
		if err != nil {
			outerErr = err
			return false
		}
		return fn(tuple)
	})
	return outerErr
}
