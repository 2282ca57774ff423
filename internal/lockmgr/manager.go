package lockmgr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/latch"
	"dora/internal/metrics"
)

// TxnID identifies a transaction to the lock manager.
type TxnID uint64

// ErrDeadlock is returned to a transaction chosen as a deadlock victim.
var ErrDeadlock = errors.New("lockmgr: deadlock detected")

// ErrTimeout is returned when a lock wait exceeds the manager's timeout; the
// caller is expected to abort, mirroring Shore-MT's timeout fallback.
var ErrTimeout = errors.New("lockmgr: lock wait timeout")

// DefaultNumBuckets is the size of the lock hash table.
const DefaultNumBuckets = 1024

// DefaultTimeout is the default lock wait timeout.
const DefaultTimeout = 2 * time.Second

// request is one entry in a lock's request list.
type request struct {
	txn     TxnID
	mode    Mode
	granted bool
	// upgrade marks a pending upgrade of an already-granted request.
	upgrade bool
	// grant receives nil when the request is granted, or an error when the
	// waiter is a deadlock victim or timed out.
	grant chan error
}

// lockHead is the per-resource lock structure: mode summary plus the request
// list, protected by the bucket latch (as in Shore-MT, where each lock has a
// latch; hashing many locks to one latch only increases contention, which is
// the phenomenon under study).
type lockHead struct {
	id       LockID
	requests []*request
}

// grantedGroupMode returns the supremum of granted modes excluding the given
// transaction's own requests.
func (h *lockHead) grantedGroupMode(exclude TxnID) Mode {
	mode := ModeNone
	for _, r := range h.requests {
		if r.granted && r.txn != exclude {
			mode = Supremum(mode, r.mode)
		}
	}
	return mode
}

func (h *lockHead) findGranted(txn TxnID) *request {
	for _, r := range h.requests {
		if r.txn == txn && r.granted {
			return r
		}
	}
	return nil
}

type bucket struct {
	latch latch.Latch
	locks map[LockID]*lockHead
}

// Stats reports lock manager activity.
type Stats struct {
	Acquisitions  uint64
	Waits         uint64
	Deadlocks     uint64
	Timeouts      uint64
	Upgrades      uint64
	ReleasedLocks uint64
}

// Manager is the centralized lock manager.
type Manager struct {
	buckets []bucket
	timeout time.Duration

	// Deadlock detection state: which lock each blocked transaction waits
	// for and which transactions currently block it.
	waitMu   sync.Mutex
	waitsFor map[TxnID]map[TxnID]struct{}

	// Per-transaction acquired lock lists, youngest last.
	txnMu    sync.Mutex
	txnLocks map[TxnID][]LockID

	statMu sync.Mutex
	stats  Stats

	col atomic.Pointer[metrics.Collector]
}

// Option configures a Manager.
type Option func(*Manager)

// WithBuckets sets the hash-table size.
func WithBuckets(n int) Option {
	return func(m *Manager) {
		if n > 0 {
			m.buckets = make([]bucket, n)
		}
	}
}

// WithTimeout sets the lock wait timeout.
func WithTimeout(d time.Duration) Option {
	return func(m *Manager) {
		if d > 0 {
			m.timeout = d
		}
	}
}

// New creates a lock manager.
func New(opts ...Option) *Manager {
	m := &Manager{
		buckets:  make([]bucket, DefaultNumBuckets),
		timeout:  DefaultTimeout,
		waitsFor: make(map[TxnID]map[TxnID]struct{}),
		txnLocks: make(map[TxnID][]LockID),
	}
	for _, o := range opts {
		o(m)
	}
	for i := range m.buckets {
		m.buckets[i].locks = make(map[LockID]*lockHead)
	}
	return m
}

// SetCollector attaches a metrics collector; nil detaches.
func (m *Manager) SetCollector(c *metrics.Collector) {
	m.col.Store(c)
}

// Stats returns a snapshot of manager activity counters.
func (m *Manager) Stats() Stats {
	m.statMu.Lock()
	defer m.statMu.Unlock()
	return m.stats
}

func (m *Manager) bucketFor(id LockID) *bucket {
	return &m.buckets[id.hash(len(m.buckets))]
}

// LockTable acquires a table-granularity lock.
func (m *Manager) LockTable(txn TxnID, table uint32, mode Mode) error {
	return m.Acquire(txn, TableLock(table), mode)
}

// LockRow acquires a row lock, first ensuring the appropriate table intention
// lock is held ("the lock manager first ensures the transaction holds
// higher-level intention locks, requesting them automatically if needed").
func (m *Manager) LockRow(txn TxnID, table uint32, ridKey uint64, mode Mode) error {
	if err := m.Acquire(txn, TableLock(table), IntentionFor(mode)); err != nil {
		return err
	}
	return m.Acquire(txn, RowLock(table, ridKey), mode)
}

// Acquire obtains the lock in the given mode for the transaction, blocking
// until it is granted, the wait times out, or the transaction becomes a
// deadlock victim. Re-acquiring a lock already held in a covering mode is a
// no-op; requesting a stronger mode performs an upgrade.
func (m *Manager) Acquire(txn TxnID, id LockID, mode Mode) error {
	col := m.col.Load()
	start := time.Now()
	var contention time.Duration

	b := m.bucketFor(id)
	contention += b.latch.Acquire()
	head := b.locks[id]
	if head == nil {
		head = &lockHead{id: id}
		b.locks[id] = head
	}

	// Fast path: already hold a covering lock.
	if own := head.findGranted(txn); own != nil {
		if Covers(own.mode, mode) {
			b.latch.Release()
			m.recordAcquire(col, start, contention, id, false)
			return nil
		}
		// Upgrade path.
		target := Supremum(own.mode, mode)
		if Compatible(head.grantedGroupMode(txn), target) {
			own.mode = target
			b.latch.Release()
			m.statMu.Lock()
			m.stats.Upgrades++
			m.statMu.Unlock()
			m.recordAcquire(col, start, contention, id, false)
			return nil
		}
		req := &request{txn: txn, mode: target, upgrade: true, grant: make(chan error, 1)}
		head.requests = append(head.requests, req)
		holders := m.currentHolders(head, txn)
		b.latch.Release()
		err := m.wait(txn, id, req, holders, b, head)
		waited := time.Since(start) - contention
		if col != nil {
			col.AddAcquire(time.Since(start)-contention-waited, contention+waited)
		}
		if err != nil {
			return err
		}
		m.statMu.Lock()
		m.stats.Upgrades++
		m.statMu.Unlock()
		m.noteAcquired(txn, id, false)
		return nil
	}

	req := &request{txn: txn, mode: mode, grant: make(chan error, 1)}
	canGrant := !m.hasWaiters(head) && Compatible(head.grantedGroupMode(txn), mode)
	if canGrant {
		req.granted = true
		head.requests = append(head.requests, req)
		b.latch.Release()
		m.recordAcquire(col, start, contention, id, true)
		m.noteAcquired(txn, id, true)
		return nil
	}

	// Must wait.
	head.requests = append(head.requests, req)
	holders := m.currentHolders(head, txn)
	b.latch.Release()
	err := m.wait(txn, id, req, holders, b, head)
	total := time.Since(start)
	if col != nil {
		// Everything beyond the initial bookkeeping is contention.
		col.AddAcquire(0, total)
		if err == nil {
			m.censusLock(col, id)
		}
	}
	if err != nil {
		return err
	}
	m.statMu.Lock()
	m.stats.Acquisitions++
	m.stats.Waits++
	m.statMu.Unlock()
	m.noteAcquired(txn, id, false)
	return nil
}

// hasWaiters reports whether any request in the list is not yet granted
// (strict FIFO: new requests must queue behind existing waiters).
func (m *Manager) hasWaiters(head *lockHead) bool {
	for _, r := range head.requests {
		if !r.granted {
			return true
		}
	}
	return false
}

// currentHolders returns the transactions currently granted on the lock,
// excluding the given transaction.
func (m *Manager) currentHolders(head *lockHead, exclude TxnID) []TxnID {
	var out []TxnID
	for _, r := range head.requests {
		if r.granted && r.txn != exclude {
			out = append(out, r.txn)
		}
	}
	return out
}

// recordAcquire attributes time and census for an immediately granted (or
// no-op) acquisition.
func (m *Manager) recordAcquire(col *metrics.Collector, start time.Time, contention time.Duration, id LockID, census bool) {
	if col != nil {
		useful := time.Since(start) - contention
		if useful < 0 {
			useful = 0
		}
		col.AddAcquire(useful, contention)
		if census {
			m.censusLock(col, id)
		}
	}
	if census {
		m.statMu.Lock()
		m.stats.Acquisitions++
		m.statMu.Unlock()
	}
}

func (m *Manager) censusLock(col *metrics.Collector, id LockID) {
	if id.Scope == ScopeRow {
		col.AddLock(metrics.RowLock, 1)
	} else {
		col.AddLock(metrics.HigherLevelLock, 1)
	}
}

// noteAcquired appends the lock to the transaction's acquisition list.
func (m *Manager) noteAcquired(txn TxnID, id LockID, counted bool) {
	_ = counted
	m.txnMu.Lock()
	m.txnLocks[txn] = append(m.txnLocks[txn], id)
	m.txnMu.Unlock()
}

// wait blocks the transaction on the request, registering waits-for edges for
// deadlock detection and honouring the manager timeout.
func (m *Manager) wait(txn TxnID, id LockID, req *request, holders []TxnID, b *bucket, head *lockHead) error {
	if victim := m.addWaitEdges(txn, holders); victim {
		// Adding these edges would close a cycle: this transaction is the
		// deadlock victim. Remove its request and fail.
		m.removeWaitEdges(txn)
		m.removeRequest(b, head, req)
		m.statMu.Lock()
		m.stats.Deadlocks++
		m.statMu.Unlock()
		return ErrDeadlock
	}
	defer m.removeWaitEdges(txn)

	timer := time.NewTimer(m.timeout)
	defer timer.Stop()
	select {
	case err := <-req.grant:
		return err
	case <-timer.C:
		// Timed out: remove the request unless it was granted in the
		// meantime (check-and-remove atomically under the bucket latch).
		b.latch.Acquire()
		if req.granted {
			b.latch.Release()
			return nil
		}
		m.removeRequestEntry(head, req)
		m.grantWaitersLocked(head)
		if len(head.requests) == 0 {
			delete(b.locks, head.id)
		}
		b.latch.Release()
		m.statMu.Lock()
		m.stats.Timeouts++
		m.statMu.Unlock()
		return ErrTimeout
	}
}

// removeRequest unlinks an ungranted request from the lock head.
func (m *Manager) removeRequest(b *bucket, head *lockHead, req *request) {
	b.latch.Acquire()
	for i, r := range head.requests {
		if r == req {
			head.requests = append(head.requests[:i], head.requests[i+1:]...)
			break
		}
	}
	m.grantWaitersLocked(head)
	if len(head.requests) == 0 {
		delete(b.locks, head.id)
	}
	b.latch.Release()
}

// addWaitEdges records txn→holder edges and reports whether doing so would
// create a cycle (deadlock), in which case no edges are added.
func (m *Manager) addWaitEdges(txn TxnID, holders []TxnID) bool {
	m.waitMu.Lock()
	defer m.waitMu.Unlock()
	edges := m.waitsFor[txn]
	if edges == nil {
		edges = make(map[TxnID]struct{})
		m.waitsFor[txn] = edges
	}
	for _, h := range holders {
		edges[h] = struct{}{}
	}
	// DFS from each holder looking for a path back to txn.
	if m.pathExistsLocked(holders, txn) {
		for _, h := range holders {
			delete(edges, h)
		}
		if len(edges) == 0 {
			delete(m.waitsFor, txn)
		}
		return true
	}
	return false
}

func (m *Manager) pathExistsLocked(from []TxnID, target TxnID) bool {
	visited := make(map[TxnID]bool)
	var stack []TxnID
	stack = append(stack, from...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == target {
			return true
		}
		if visited[cur] {
			continue
		}
		visited[cur] = true
		for next := range m.waitsFor[cur] {
			stack = append(stack, next)
		}
	}
	return false
}

func (m *Manager) removeWaitEdges(txn TxnID) {
	m.waitMu.Lock()
	delete(m.waitsFor, txn)
	m.waitMu.Unlock()
}

// ReleaseAll releases every lock held by the transaction, youngest first, as a
// conventional engine does at commit or after rollback. It returns the number
// of locks released.
func (m *Manager) ReleaseAll(txn TxnID) int {
	col := m.col.Load()
	m.txnMu.Lock()
	locks := m.txnLocks[txn]
	delete(m.txnLocks, txn)
	m.txnMu.Unlock()

	released := 0
	for i := len(locks) - 1; i >= 0; i-- {
		start := time.Now()
		var contention time.Duration
		id := locks[i]
		b := m.bucketFor(id)
		contention += b.latch.Acquire()
		head := b.locks[id]
		if head == nil {
			b.latch.Release()
			continue
		}
		removed := false
		for j := 0; j < len(head.requests); j++ {
			r := head.requests[j]
			if r.txn == txn && r.granted {
				head.requests = append(head.requests[:j], head.requests[j+1:]...)
				removed = true
				break
			}
		}
		if removed {
			released++
			m.grantWaitersLocked(head)
			if len(head.requests) == 0 {
				delete(b.locks, id)
			}
		}
		b.latch.Release()
		if col != nil {
			useful := time.Since(start) - contention
			if useful < 0 {
				useful = 0
			}
			col.AddRelease(useful, contention)
		}
	}
	m.statMu.Lock()
	m.stats.ReleasedLocks += uint64(released)
	m.statMu.Unlock()
	return released
}

// HeldLocks returns the locks currently recorded for the transaction, oldest
// first. It is primarily for tests and debugging.
func (m *Manager) HeldLocks(txn TxnID) []LockID {
	m.txnMu.Lock()
	defer m.txnMu.Unlock()
	out := make([]LockID, len(m.txnLocks[txn]))
	copy(out, m.txnLocks[txn])
	return out
}

// Holds reports whether the transaction currently holds the lock in a mode
// covering the given mode.
func (m *Manager) Holds(txn TxnID, id LockID, mode Mode) bool {
	b := m.bucketFor(id)
	b.latch.Acquire()
	defer b.latch.Release()
	head := b.locks[id]
	if head == nil {
		return false
	}
	own := head.findGranted(txn)
	return own != nil && Covers(own.mode, mode)
}

// grantWaitersLocked grants as many pending requests as possible in FIFO
// order, stopping at the first waiter that remains incompatible (strict FIFO
// avoids starvation). The caller holds the bucket latch.
func (m *Manager) grantWaitersLocked(head *lockHead) {
	i := 0
	for i < len(head.requests) {
		r := head.requests[i]
		if r.granted {
			i++
			continue
		}
		if r.upgrade {
			// Upgrade: grantable when no other transaction's granted mode
			// conflicts with the target mode.
			if Compatible(head.grantedGroupMode(r.txn), r.mode) {
				if own := head.findGranted(r.txn); own != nil {
					own.mode = r.mode
				}
				// Remove the upgrade placeholder; the original granted
				// request now carries the upgraded mode.
				head.requests = append(head.requests[:i], head.requests[i+1:]...)
				r.granted = true
				r.grant <- nil
				continue
			}
			break
		}
		if Compatible(head.grantedGroupMode(r.txn), r.mode) {
			r.granted = true
			r.grant <- nil
			i++
			continue
		}
		break
	}
}

// removeRequestEntry unlinks a request object from the head's request list.
// The caller holds the bucket latch.
func (m *Manager) removeRequestEntry(head *lockHead, req *request) {
	for i, r := range head.requests {
		if r == req {
			head.requests = append(head.requests[:i], head.requests[i+1:]...)
			return
		}
	}
}

// String summarizes the manager for debugging.
func (m *Manager) String() string {
	s := m.Stats()
	return fmt.Sprintf("lockmgr{acquisitions=%d waits=%d deadlocks=%d timeouts=%d}",
		s.Acquisitions, s.Waits, s.Deadlocks, s.Timeouts)
}
