package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dora/internal/storage"
)

func mustCommit(t *testing.T, e *Engine, txn *Txn) {
	t.Helper()
	if err := e.Commit(txn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func balanceAt(t *testing.T, snap *Snapshot, id int64) (float64, bool) {
	t.Helper()
	tu, err := snap.Probe("accounts", pkOf(id))
	if errors.Is(err, ErrNotFound) {
		return 0, false
	}
	if err != nil {
		t.Fatalf("snapshot Probe(%d): %v", id, err)
	}
	return tu[3].Float, true
}

// A snapshot pins the database state at its begin horizon: later updates,
// inserts, and deletes stay invisible to it, while a snapshot begun after the
// commits sees all of them.
func TestSnapshotIsolatesFromLaterWrites(t *testing.T) {
	e, _ := newAccountsEngine(t)
	defer e.Close()

	txn := e.Begin()
	mustInsert(t, e, txn, 1, 1, "ann", 100)
	mustInsert(t, e, txn, 2, 1, "bob", 200)
	mustCommit(t, e, txn)

	old := e.BeginSnapshot()
	defer old.Release()

	txn = e.Begin()
	if err := e.Update(txn, "accounts", pkOf(1), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(150)
		return tu, nil
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := e.Delete(txn, "accounts", pkOf(2), Conventional()); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	mustInsert(t, e, txn, 3, 1, "cay", 300)
	mustCommit(t, e, txn)

	if bal, ok := balanceAt(t, old, 1); !ok || bal != 100 {
		t.Fatalf("old snapshot sees account 1 = (%v, %v), want 100", bal, ok)
	}
	if bal, ok := balanceAt(t, old, 2); !ok || bal != 200 {
		t.Fatalf("old snapshot sees account 2 = (%v, %v), want 200", bal, ok)
	}
	if _, ok := balanceAt(t, old, 3); ok {
		t.Fatal("old snapshot sees account 3, inserted after it began")
	}
	var n int
	if err := old.ScanTable("accounts", func(storage.Tuple) bool { n++; return true }); err != nil {
		t.Fatalf("old ScanTable: %v", err)
	}
	if n != 2 {
		t.Fatalf("old snapshot scan saw %d records, want 2", n)
	}

	fresh := e.BeginSnapshot()
	defer fresh.Release()
	if bal, ok := balanceAt(t, fresh, 1); !ok || bal != 150 {
		t.Fatalf("fresh snapshot sees account 1 = (%v, %v), want 150", bal, ok)
	}
	if _, ok := balanceAt(t, fresh, 2); ok {
		t.Fatal("fresh snapshot sees deleted account 2")
	}
	if bal, ok := balanceAt(t, fresh, 3); !ok || bal != 300 {
		t.Fatalf("fresh snapshot sees account 3 = (%v, %v), want 300", bal, ok)
	}
}

// Uncommitted writes are invisible to snapshots (pending versions), and a
// whole transaction becomes visible atomically at commit.
func TestSnapshotNeverSeesUncommittedWrites(t *testing.T) {
	e, _ := newAccountsEngine(t)
	defer e.Close()

	setup := e.Begin()
	mustInsert(t, e, setup, 1, 1, "ann", 100)
	mustCommit(t, e, setup)

	txn := e.Begin()
	if err := e.Update(txn, "accounts", pkOf(1), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(999)
		return tu, nil
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	mustInsert(t, e, txn, 2, 1, "bob", 50)

	snap := e.BeginSnapshot()
	if bal, ok := balanceAt(t, snap, 1); !ok || bal != 100 {
		t.Fatalf("snapshot sees uncommitted update: (%v, %v), want 100", bal, ok)
	}
	if _, ok := balanceAt(t, snap, 2); ok {
		t.Fatal("snapshot sees uncommitted insert")
	}
	snap.Release()

	if err := e.Abort(txn); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	after := e.BeginSnapshot()
	defer after.Release()
	if bal, ok := balanceAt(t, after, 1); !ok || bal != 100 {
		t.Fatalf("post-abort snapshot sees (%v, %v), want 100", bal, ok)
	}
	if _, ok := balanceAt(t, after, 2); ok {
		t.Fatal("post-abort snapshot sees rolled-back insert")
	}
}

// The pruner never reclaims versions a live snapshot still needs: the
// watermark is the minimum pinned horizon, so history at or above it survives
// any number of passes, and is reclaimed once the snapshot releases.
func TestPrunerNeverReclaimsPinnedEpoch(t *testing.T) {
	e, tbl := newAccountsEngine(t)
	defer e.Close()

	txn := e.Begin()
	mustInsert(t, e, txn, 1, 1, "ann", 100)
	mustCommit(t, e, txn)

	snap := e.BeginSnapshot()
	defer snap.Release()

	for i := 0; i < 10; i++ {
		txn := e.Begin()
		bal := float64(200 + i)
		if err := e.Update(txn, "accounts", pkOf(1), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
			tu[3] = storage.FloatValue(bal)
			return tu, nil
		}); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
		mustCommit(t, e, txn)
		e.PruneNow()
	}

	if bal, ok := balanceAt(t, snap, 1); !ok || bal != 100 {
		t.Fatalf("pinned snapshot sees (%v, %v) after pruning, want 100", bal, ok)
	}

	// The pinned snapshot holds the watermark at its horizon: the chain keeps
	// exactly the history above it (10 committed updates) plus the anchor.
	var rid storage.RID
	if en, ok := tbl.primary.SearchUnique(pkOf(1)); ok {
		rid = en.RID
	} else {
		t.Fatal("account 1 lost its index entry")
	}
	length := func() int {
		n := 0
		for v := tbl.versions.lookup(rid); v != nil; v = v.next.Load() {
			n++
		}
		return n
	}
	if got := length(); got != 11 {
		t.Fatalf("pinned chain length = %d, want 11 (10 updates + anchor)", got)
	}

	snap.Release()
	e.PruneNow()
	if got := length(); got != 0 {
		t.Fatalf("chain length after release+prune = %d, want 0 (collapsed to heap)", got)
	}
}

// Under update churn with no snapshots, periodic pruning keeps chains
// collapsed: the steady state is no chain at all (the heap image is the only
// version).
func TestPrunerBoundsChainLengthUnderChurn(t *testing.T) {
	e, tbl := newAccountsEngine(t)
	defer e.Close()

	txn := e.Begin()
	rid := mustInsert(t, e, txn, 1, 1, "ann", 0)
	mustCommit(t, e, txn)

	for i := 0; i < 200; i++ {
		txn := e.Begin()
		bal := float64(i)
		if err := e.Update(txn, "accounts", pkOf(1), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
			tu[3] = storage.FloatValue(bal)
			return tu, nil
		}); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
		mustCommit(t, e, txn)
		if i%10 == 9 {
			e.PruneNow()
			n := 0
			for v := tbl.versions.lookup(rid); v != nil; v = v.next.Load() {
				n++
			}
			if n != 0 {
				t.Fatalf("after prune at update %d: chain length %d, want 0", i, n)
			}
		}
	}
}

// A snapshot pinned before a delete commits keeps resolving the record
// through its flagged index entry; the flagged entry and the chain are only
// reclaimed once the snapshot releases, and a reused primary key resolves to
// whichever version the horizon selects.
func TestSnapshotResolvesThroughFlaggedEntries(t *testing.T) {
	e, _ := newAccountsEngine(t)
	defer e.Close()

	txn := e.Begin()
	mustInsert(t, e, txn, 1, 1, "ann", 100)
	mustCommit(t, e, txn)

	preDelete := e.BeginSnapshot()
	defer preDelete.Release()

	txn = e.Begin()
	if err := e.Delete(txn, "accounts", pkOf(1), Conventional()); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	mustCommit(t, e, txn)
	e.PruneNow() // must not reclaim: preDelete pins the pre-delete horizon

	postDelete := e.BeginSnapshot()
	defer postDelete.Release()

	// Reinsert the same primary key (possibly reusing the heap slot).
	txn = e.Begin()
	mustInsert(t, e, txn, 1, 2, "ann2", 500)
	mustCommit(t, e, txn)

	postInsert := e.BeginSnapshot()
	defer postInsert.Release()

	if bal, ok := balanceAt(t, preDelete, 1); !ok || bal != 100 {
		t.Fatalf("pre-delete snapshot sees (%v, %v), want 100", bal, ok)
	}
	if _, ok := balanceAt(t, postDelete, 1); ok {
		t.Fatal("post-delete snapshot still sees the deleted record")
	}
	if bal, ok := balanceAt(t, postInsert, 1); !ok || bal != 500 {
		t.Fatalf("post-reinsert snapshot sees (%v, %v), want 500", bal, ok)
	}

	// Scans agree with probes at each horizon, and never emit duplicates.
	for _, tc := range []struct {
		snap *Snapshot
		want int
	}{{preDelete, 1}, {postDelete, 0}, {postInsert, 1}} {
		n := 0
		if err := tc.snap.ScanTable("accounts", func(storage.Tuple) bool { n++; return true }); err != nil {
			t.Fatalf("ScanTable: %v", err)
		}
		if n != tc.want {
			t.Fatalf("scan at horizon %d saw %d records, want %d", tc.snap.Horizon(), n, tc.want)
		}
	}

	preDelete.Release()
	postDelete.Release()
	postInsert.Release()
	e.PruneNow()
	fresh := e.BeginSnapshot()
	defer fresh.Release()
	if bal, ok := balanceAt(t, fresh, 1); !ok || bal != 500 {
		t.Fatalf("post-prune snapshot sees (%v, %v), want 500", bal, ok)
	}
}

// Concurrent writers moving balance between accounts never break snapshot
// consistency: every snapshot observes a total balance equal to the invariant
// sum, under -race, with the background pruner running.
func TestSnapshotConsistencyUnderConcurrentTransfers(t *testing.T) {
	e, _ := newAccountsEngine(t)
	defer e.Close()

	const accounts = 8
	const perAccount = 1000.0
	setup := e.Begin()
	for i := int64(1); i <= accounts; i++ {
		mustInsert(t, e, setup, i, i%2, fmt.Sprintf("acct%d", i), perAccount)
	}
	mustCommit(t, e, setup)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			src := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				dst := src%accounts + 1
				txn := e.Begin()
				move := func(id int64, delta float64) error {
					return e.Update(txn, "accounts", pkOf(id), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
						tu[3] = storage.FloatValue(tu[3].Float + delta)
						return tu, nil
					})
				}
				if err := move(src, -1); err == nil {
					if err := move(dst, +1); err == nil {
						e.Commit(txn)
					} else {
						e.Abort(txn)
					}
				} else {
					e.Abort(txn)
				}
				src = dst
			}
		}(int64(w + 1))
	}

	for i := 0; i < 300; i++ {
		snap := e.BeginSnapshot()
		var total float64
		n := 0
		if err := snap.ScanTable("accounts", func(tu storage.Tuple) bool {
			total += tu[3].Float
			n++
			return true
		}); err != nil {
			t.Errorf("snapshot scan: %v", err)
		}
		if n != accounts || total != accounts*perAccount {
			t.Errorf("snapshot at horizon %d: %d accounts totaling %v, want %d totaling %v",
				snap.Horizon(), n, total, accounts, accounts*perAccount)
		}
		snap.Release()
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}
