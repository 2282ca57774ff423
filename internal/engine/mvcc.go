// Multi-version tuples and snapshot reads pinned at a log horizon.
//
// The heap keeps exactly one (possibly uncommitted) image per record, as
// before — the OLTP write path stays allocation-free when no reader needs
// history. Every writer additionally installs a version node in a per-table
// sharded chain store before it mutates the heap, and a background pruner
// collapses chains back to nothing once no live snapshot can need them.
//
// One commit order serves durability and visibility: the LSN of a
// transaction's COMMIT record. A write transaction stamps its nodes with that
// LSN under the engine's commit latch, in the same critical section as the
// append (appendCommit). A snapshot pins the log's durable watermark
// (FlushedLSN), read under the same latch, as its horizon H. Every commit at
// or below H is then both stamped and durable, and none above H is visible.
// Early lock release cannot break this: a dependent reads its upstream's
// write only after the upstream's COMMIT has its LSN, so the dependent's
// commit LSN is higher, and no horizon covers the dependent without the
// upstream. A commit whose flush is refused keeps an LSN the horizon never
// reaches, so it stays invisible until the caller rolls it back.
//
// Visibility rule: a version is visible to a snapshot with horizon H iff its
// commit LSN is <= H; chains are newest-first, so the first node at or below
// H wins, and a node with nil data means "the record does not exist at this
// version". A record with no chain is entirely committed and its heap image
// is the (sole) version, visible at every horizon.
//
// The correctness of the no-chain fallback rests on two ordering rules:
//
//  1. Writers install the chain node (under the shard write lock) BEFORE the
//     heap mutation, and rollback restores the heap BEFORE popping the
//     transaction's node. A reader that reads the heap and then finds no
//     chain (the shard mutex gives the happens-before edge) is therefore
//     guaranteed the heap bytes it read were committed.
//  2. Inserts are the one case where heap bytes exist before the chain can
//     (the RID is unknown until heap.insert returns). The only index path to
//     such a RID is a stale flagged entry of a deleted predecessor whose
//     heap slot was reused. Snapshot reads therefore resolve every entry
//     in-callback, while the B+Tree's read latch is held (per latch chunk —
//     scans release it between bounded chunks so writers never stall long),
//     and the pruner removes a delete-terminated chain only AFTER removing
//     its flagged index entries (which takes the write latch). A reader that
//     observes a stale flagged entry thus holds off phase A of the pruner
//     pass, so the predecessor's chain is still installed and resolution
//     goes through it — the uncommitted heap bytes are never consulted.
package engine

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/btree"
	"dora/internal/storage"
	"dora/internal/wal"
)

// uncommitted marks a version whose transaction has not appended its commit
// record yet. It compares greater than every horizon, so such versions are
// never visible.
const uncommitted = math.MaxUint64

// version is one node of a record's version chain, newest-first.
type version struct {
	// commit is the LSN of the installing transaction's COMMIT record, or
	// uncommitted before it. Stamped exactly once, at the commit append.
	commit atomic.Uint64
	// txn is the installing transaction.
	txn uint64
	// data is the encoded tuple image of this version; nil means the record
	// does not exist at this version (a delete, or the pre-insert base).
	data []byte
	// next points at the previous (older) version. Atomic so the pruner can
	// truncate a chain under concurrent walkers.
	next atomic.Pointer[version]
}

// visibleAt reports whether the version is visible at horizon h.
func (v *version) visibleAt(h wal.LSN) bool { return v.commit.Load() <= uint64(h) }

// versionShards is the number of locks the chain map is striped over.
const versionShards = 64

// versionStore holds the version chains of one table, keyed by RID.
type versionStore struct {
	shards [versionShards]versionShard
}

type versionShard struct {
	mu     sync.RWMutex
	chains map[uint64]*version
}

func newVersionStore() *versionStore {
	vs := &versionStore{}
	for i := range vs.shards {
		vs.shards[i].chains = make(map[uint64]*version)
	}
	return vs
}

func (vs *versionStore) shard(rid storage.RID) *versionShard {
	return &vs.shards[rid.Key()%versionShards]
}

// install adds a pending version with the given image (nil for a delete) to
// the record's chain, synthesizing a committed base node from the pre-change
// heap image when the record has no chain yet (base nil means the record did
// not exist before — an insert). A repeated write by the same transaction
// replaces its own pending head. Callers must invoke install before mutating
// the heap (ordering rule 1 above).
func (vs *versionStore) install(rid storage.RID, txnID uint64, data, base []byte) *version {
	v := &version{txn: txnID, data: data}
	v.commit.Store(uncommitted)
	sh := vs.shard(rid)
	sh.mu.Lock()
	head := sh.chains[rid.Key()]
	switch {
	case head == nil:
		bn := &version{data: base} // commit 0: visible at every horizon
		v.next.Store(bn)
	case head.commit.Load() == uncommitted && head.txn == txnID:
		v.next.Store(head.next.Load())
	default:
		v.next.Store(head)
	}
	sh.chains[rid.Key()] = v
	sh.mu.Unlock()
	return v
}

// popTxn removes the transaction's head nodes from the record's chain, if
// present (rollback and insert-failure paths). It matches by installing
// transaction alone: after a commit whose flush was refused, the nodes carry
// a commit LSN no horizon will reach, and the rollback must still remove
// them. Callers must restore the heap before popping (ordering rule 1 above).
func (vs *versionStore) popTxn(rid storage.RID, txnID uint64) {
	sh := vs.shard(rid)
	sh.mu.Lock()
	head := sh.chains[rid.Key()]
	for head != nil && head.txn == txnID {
		head = head.next.Load()
	}
	if head == nil {
		delete(sh.chains, rid.Key())
	} else {
		sh.chains[rid.Key()] = head
	}
	sh.mu.Unlock()
}

// lookup returns the record's chain head, or nil if the record has no chain.
func (vs *versionStore) lookup(rid storage.RID) *version {
	sh := vs.shard(rid)
	sh.mu.RLock()
	head := sh.chains[rid.Key()]
	sh.mu.RUnlock()
	return head
}

// prune reclaims history no snapshot at or above the watermark can see: a
// chain whose head is visible at the watermark is dropped entirely (the heap
// image equals the head), and otherwise everything below the first node
// visible at the watermark is truncated. The per-chain lengths are reported
// to the collector. Chains whose head is a committed delete are only reached
// here after the caller ran the due index cleanups (phase A), preserving
// ordering rule 2 above.
func (vs *versionStore) prune(wm wal.LSN, observe func(chainLen int)) {
	for i := range vs.shards {
		sh := &vs.shards[i]
		sh.mu.Lock()
		for key, head := range sh.chains {
			n := 0
			for v := head; v != nil; v = v.next.Load() {
				n++
			}
			if observe != nil {
				observe(n)
			}
			if head.visibleAt(wm) {
				delete(sh.chains, key)
				continue
			}
			for v := head; v != nil; v = v.next.Load() {
				if v.visibleAt(wm) {
					v.next.Store(nil)
					break
				}
			}
		}
		sh.mu.Unlock()
	}
}

// resolveAt returns the record's image as of the given horizon via the
// index entry with the given primary key, or ErrNotFound if the record is not
// visible there. The heap is read BEFORE the chain lookup: if no chain exists
// afterwards, the shard mutex guarantees the heap bytes were committed
// (ordering rule 1 above).
//
// A chain is keyed by RID, so after heap-slot reuse it can span several
// logical records, delimited by nil-data delete nodes; a version below the
// boundary belongs to the slot's previous owner. Chain-resolved tuples are
// therefore checked against the entry's key, and a mismatch means "this key's
// record is not visible at this horizon" — the previous owner's own (flagged)
// entry is the path that legitimately reaches its versions. The no-chain heap
// fallback needs no check: a live entry always matches the committed record
// at its RID, and a flagged entry outlives its chain only until the pruner's
// phase A, which the caller's read latch holds off (ordering rule 2).
func (t *Table) resolveAt(rid storage.RID, pk storage.Key, h wal.LSN) (storage.Tuple, error) {
	heapData, heapErr := t.heap.get(rid)
	if head := t.versions.lookup(rid); head != nil {
		for v := head; v != nil; v = v.next.Load() {
			if v.visibleAt(h) {
				if v.data == nil {
					return nil, ErrNotFound
				}
				tu, err := storage.DecodeTuple(v.data)
				if err != nil {
					return nil, err
				}
				if !bytes.Equal(t.PrimaryKey(tu), pk) {
					return nil, ErrNotFound
				}
				return tu, nil
			}
		}
		return nil, ErrNotFound
	}
	if heapErr != nil {
		return nil, heapErr
	}
	return storage.DecodeTuple(heapData)
}

// commitCleanup is one deferred physical index cleanup of a committed
// delete, runnable once the prune watermark reaches its commit LSN.
type commitCleanup struct {
	lsn    wal.LSN
	tbl    *Table
	before storage.Tuple
	rid    storage.RID
}

// indexCleanup is a transaction-local deferred cleanup, moved onto the
// engine's LSN-stamped queue at commit and dropped on abort.
type indexCleanup struct {
	tbl    *Table
	before storage.Tuple
	rid    storage.RID
}

// pendingVersion tracks one version a transaction installed, for commit
// stamping and rollback popping.
type pendingVersion struct {
	tbl *Table
	rid storage.RID
	v   *version
}

// Snapshot is a read-only view of the engine pinned at one log horizon. Its
// reads take no lock-manager locks and no executor-queue latching; they are
// wait-free with respect to writers. Release it when done so the pruner can
// reclaim the history it pins.
type Snapshot struct {
	eng      *Engine
	id       uint64
	horizon  wal.LSN
	released atomic.Bool
}

// BeginSnapshot pins the log's durable watermark as the snapshot's horizon.
// Reading it under the commit latch guarantees every commit at or below it
// has stamped its versions (see the top of the file).
func (e *Engine) BeginSnapshot() *Snapshot {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	return e.pinSnapshotLocked(e.log.FlushedLSN())
}

// pinSnapshotLocked registers a snapshot at horizon h with the pruner's
// watermark. The caller holds commitMu.
func (e *Engine) pinSnapshotLocked(h wal.LSN) *Snapshot {
	e.nextSnap++
	e.snaps[e.nextSnap] = h
	return &Snapshot{eng: e, id: e.nextSnap, horizon: h}
}

// Horizon returns the snapshot's pinned log horizon: it sees exactly the
// transactions whose commit LSN is at or below it.
func (s *Snapshot) Horizon() wal.LSN { return s.horizon }

// Release unpins the snapshot. Idempotent.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	s.eng.commitMu.Lock()
	delete(s.eng.snaps, s.id)
	s.eng.commitMu.Unlock()
}

// Probe reads the record with the given primary key as of the snapshot's
// horizon. Flagged index entries are considered too — the version chain, not
// the flag, decides visibility — and each candidate is resolved in-callback
// under the index read latch (ordering rule 2 above).
func (s *Snapshot) Probe(table string, pk storage.Key) (storage.Tuple, error) {
	tbl, err := s.eng.Table(table)
	if err != nil {
		return nil, err
	}
	var out storage.Tuple
	var innerErr error
	tbl.primary.SearchEach(pk, func(en btree.Entry) bool {
		tu, rerr := tbl.resolveAt(en.RID, en.Key, s.horizon)
		if rerr != nil {
			if errors.Is(rerr, ErrNotFound) {
				return true
			}
			innerErr = rerr
			return false
		}
		out = tu
		return false
	})
	if innerErr != nil {
		return nil, innerErr
	}
	if out == nil {
		return nil, ErrNotFound
	}
	s.eng.Collector().AddSnapshotReads(1)
	return out, nil
}

// ScanTable visits every record visible at the snapshot's horizon in
// primary-key order, invoking fn until it returns false.
func (s *Snapshot) ScanTable(table string, fn func(storage.Tuple) bool) error {
	return s.ScanPrefix(table, nil, fn)
}

// ScanPrefix visits, in key order, every record visible at the snapshot's
// horizon whose primary key starts with the given prefix (nil scans the whole
// table). fn runs with the index read latch held, as every snapshot read
// does; it must not write through the engine.
func (s *Snapshot) ScanPrefix(table string, prefix storage.Key, fn func(storage.Tuple) bool) error {
	tbl, err := s.eng.Table(table)
	if err != nil {
		return err
	}
	var innerErr error
	reads := 0
	// A key can briefly carry several entries (flagged relics of deleted
	// records next to a reused-slot reinsert); at most one resolves visible,
	// but relics sharing the reused RID resolve identically, so emit each
	// key once.
	var lastKey storage.Key
	tbl.primary.ScanPrefixAll(prefix, func(en btree.Entry) bool {
		if lastKey != nil && bytes.Equal(en.Key, lastKey) {
			return true
		}
		tu, rerr := tbl.resolveAt(en.RID, en.Key, s.horizon)
		if rerr != nil {
			if errors.Is(rerr, ErrNotFound) {
				return true
			}
			innerErr = rerr
			return false
		}
		lastKey = en.Key
		reads++
		return fn(tu)
	})
	if reads > 0 {
		s.eng.Collector().AddSnapshotReads(reads)
	}
	return innerErr
}

// enqueueCleanups moves a committed transaction's deferred index cleanups
// onto the pruner's queue, stamped with the commit LSN. Called under
// commitMu, so the queue stays sorted by LSN.
func (e *Engine) enqueueCleanups(cs []indexCleanup, lsn wal.LSN) {
	if len(cs) == 0 {
		return
	}
	e.cleanMu.Lock()
	for _, c := range cs {
		e.cleanups = append(e.cleanups, commitCleanup{lsn: lsn, tbl: c.tbl, before: c.before, rid: c.rid})
	}
	e.cleanMu.Unlock()
}

// pruneWatermark returns the current horizon (the durable watermark a
// snapshot beginning now would pin) and the highest horizon whose history is
// reclaimable: the minimum over all live snapshots, or the current horizon
// when none are live.
func (e *Engine) pruneWatermark() (horizon, wm wal.LSN) {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	horizon = e.log.FlushedLSN()
	wm = horizon
	for _, h := range e.snaps {
		wm = min(wm, h)
	}
	return horizon, wm
}

// prunePass runs one reclamation pass: phase A removes the flagged index
// entries of deletes committed at or below the watermark (under the index
// write latches, so it serializes after any in-flight snapshot scan), then
// phase B collapses version chains. The phase order is load-bearing — see
// ordering rule 2 at the top of the file.
func (e *Engine) prunePass() {
	e.prunerMu.Lock()
	defer e.prunerMu.Unlock()
	horizon, wm := e.pruneWatermark()
	col := e.Collector()
	col.ObservePruneLag(int(horizon - wm))

	e.cleanMu.Lock()
	due := 0
	for due < len(e.cleanups) && e.cleanups[due].lsn <= wm {
		due++
	}
	batch := e.cleanups[:due]
	e.cleanups = e.cleanups[due:]
	e.cleanMu.Unlock()
	for _, c := range batch {
		c.tbl.removeIndexEntriesFlagged(c.before, c.rid)
	}

	var observe func(int)
	if col != nil {
		observe = col.ObserveChainLength
	}
	for _, tbl := range e.Tables() {
		tbl.versions.prune(wm, observe)
	}
}

// PruneNow runs one synchronous pruner pass (tests and benchmarks).
func (e *Engine) PruneNow() { e.prunePass() }

// prunerInterval is the background reclamation cadence. Short enough that
// chains stay near length one under a write-heavy mix with no snapshots,
// long enough to stay invisible in profiles.
const prunerInterval = 2 * time.Millisecond

func (e *Engine) startPruner() {
	e.prunerStop = make(chan struct{})
	e.prunerDone = make(chan struct{})
	go func() {
		defer close(e.prunerDone)
		tick := time.NewTicker(prunerInterval)
		defer tick.Stop()
		for {
			select {
			case <-e.prunerStop:
				return
			case <-tick.C:
				e.prunePass()
			}
		}
	}()
}

func (e *Engine) stopPruner() {
	e.prunerOnce.Do(func() {
		if e.prunerStop == nil {
			return // engine construction failed before startPruner ran
		}
		close(e.prunerStop)
		<-e.prunerDone
	})
}
