package engine

import (
	"errors"
	"sync"
	"testing"

	"dora/internal/metrics"
	"dora/internal/storage"
)

// newAccountsEngine builds an engine with a small bank-accounts table used by
// most tests: accounts(id INT PK, branch INT, owner VARCHAR, balance FLOAT)
// with a secondary index on branch and routing on branch.
func newAccountsEngine(t *testing.T) (*Engine, *Table) {
	t.Helper()
	e := New(Config{BufferPoolFrames: 256})
	tbl, err := e.CreateTable(TableDef{
		Name: "accounts",
		Schema: storage.NewSchema(
			storage.Column{Name: "id", Kind: storage.KindInt},
			storage.Column{Name: "branch", Kind: storage.KindInt},
			storage.Column{Name: "owner", Kind: storage.KindString},
			storage.Column{Name: "balance", Kind: storage.KindFloat},
		),
		PrimaryKey:    []string{"id"},
		RoutingFields: []string{"branch"},
		Secondary: []SecondaryDef{
			{Name: "by_branch", Columns: []string{"branch"}},
			{Name: "by_owner", Columns: []string{"owner"}},
		},
	})
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	return e, tbl
}

func account(id, branch int64, owner string, balance float64) storage.Tuple {
	return storage.Tuple{
		storage.IntValue(id),
		storage.IntValue(branch),
		storage.StringValue(owner),
		storage.FloatValue(balance),
	}
}

func pkOf(id int64) storage.Key { return storage.EncodeKey(storage.IntValue(id)) }

func mustInsert(t *testing.T, e *Engine, txn *Txn, id, branch int64, owner string, bal float64) storage.RID {
	t.Helper()
	rid, err := e.Insert(txn, "accounts", account(id, branch, owner, bal), Conventional())
	if err != nil {
		t.Fatalf("Insert(%d): %v", id, err)
	}
	return rid
}

func TestCreateTableValidation(t *testing.T) {
	e := New(Config{})
	if _, err := e.CreateTable(TableDef{Name: "bad"}); err == nil {
		t.Fatal("table without schema/PK accepted")
	}
	schema := storage.NewSchema(storage.Column{Name: "id", Kind: storage.KindInt})
	def := TableDef{Name: "t", Schema: schema, PrimaryKey: []string{"id"}}
	if _, err := e.CreateTable(def); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := e.CreateTable(def); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := e.CreateTable(TableDef{
		Name: "t2", Schema: schema, PrimaryKey: []string{"missing"},
	}); err == nil {
		t.Fatal("unknown primary-key column accepted")
	}
	if _, err := e.Table("t"); err != nil {
		t.Fatalf("Table lookup: %v", err)
	}
	if _, err := e.Table("nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing table error = %v", err)
	}
	if len(e.Tables()) != 1 {
		t.Fatalf("Tables() = %d entries", len(e.Tables()))
	}
}

func TestInsertProbeUpdateDelete(t *testing.T) {
	e, tbl := newAccountsEngine(t)
	txn := e.Begin()
	mustInsert(t, e, txn, 1, 10, "alice", 100)
	mustInsert(t, e, txn, 2, 10, "bob", 200)
	if err := e.Commit(txn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if tbl.NumRecords() != 2 {
		t.Fatalf("NumRecords = %d, want 2", tbl.NumRecords())
	}

	txn2 := e.Begin()
	got, err := e.Probe(txn2, "accounts", pkOf(1), Conventional())
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if got[2].Str != "alice" || got[3].Float != 100 {
		t.Fatalf("Probe returned %v", got)
	}
	err = e.Update(txn2, "accounts", pkOf(1), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(tu[3].Float + 50)
		return tu, nil
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := e.Delete(txn2, "accounts", pkOf(2), Conventional()); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := e.Commit(txn2); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	txn3 := e.Begin()
	got, err = e.Probe(txn3, "accounts", pkOf(1), Conventional())
	if err != nil || got[3].Float != 150 {
		t.Fatalf("after update Probe = %v, %v", got, err)
	}
	if _, err := e.Probe(txn3, "accounts", pkOf(2), Conventional()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted record probe = %v, want ErrNotFound", err)
	}
	e.Commit(txn3)
}

func TestDuplicatePrimaryKeyRejected(t *testing.T) {
	e, _ := newAccountsEngine(t)
	txn := e.Begin()
	mustInsert(t, e, txn, 1, 10, "alice", 100)
	if _, err := e.Insert(txn, "accounts", account(1, 11, "dup", 1), Conventional()); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate insert = %v, want ErrDuplicateKey", err)
	}
	e.Commit(txn)
}

func TestAbortRollsBackAllChanges(t *testing.T) {
	e, tbl := newAccountsEngine(t)
	setup := e.Begin()
	mustInsert(t, e, setup, 1, 10, "alice", 100)
	mustInsert(t, e, setup, 2, 20, "bob", 200)
	e.Commit(setup)

	txn := e.Begin()
	mustInsert(t, e, txn, 3, 30, "carol", 300)
	if err := e.Update(txn, "accounts", pkOf(1), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(0)
		return tu, nil
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := e.Delete(txn, "accounts", pkOf(2), Conventional()); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := e.Abort(txn); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	check := e.Begin()
	if _, err := e.Probe(check, "accounts", pkOf(3), Conventional()); !errors.Is(err, ErrNotFound) {
		t.Fatal("aborted insert survived")
	}
	got, err := e.Probe(check, "accounts", pkOf(1), Conventional())
	if err != nil || got[3].Float != 100 {
		t.Fatalf("aborted update not rolled back: %v %v", got, err)
	}
	got, err = e.Probe(check, "accounts", pkOf(2), Conventional())
	if err != nil || got[2].Str != "bob" {
		t.Fatalf("aborted delete not rolled back: %v %v", got, err)
	}
	if tbl.NumRecords() != 2 {
		t.Fatalf("NumRecords = %d, want 2", tbl.NumRecords())
	}
	e.Commit(check)
	// Operations on a finished transaction fail.
	if _, err := e.Probe(txn, "accounts", pkOf(1), Conventional()); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("probe on aborted txn = %v, want ErrTxnDone", err)
	}
	if err := e.Commit(txn); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("commit of aborted txn = %v, want ErrTxnDone", err)
	}
}

func TestDeleteVisibilityBeforeCommit(t *testing.T) {
	// A record deleted by an in-flight transaction is flagged in the
	// secondary indexes (so probes skip it) but only physically removed at
	// commit; an abort brings it back (§4.2.2).
	e, _ := newAccountsEngine(t)
	setup := e.Begin()
	mustInsert(t, e, setup, 1, 10, "alice", 100)
	e.Commit(setup)

	deleter := e.Begin()
	if err := e.Delete(deleter, "accounts", pkOf(1), Conventional()); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// A DORA-style secondary probe from another context sees no entry.
	reader := e.Begin()
	matches, err := e.SecondaryLookup(reader, "accounts", "by_owner",
		storage.EncodeKey(storage.StringValue("alice")), DORARead())
	if err != nil {
		t.Fatalf("SecondaryLookup: %v", err)
	}
	if len(matches) != 0 {
		t.Fatalf("uncommitted delete visible to secondary probe: %v", matches)
	}
	e.Commit(reader)
	if err := e.Abort(deleter); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	reader2 := e.Begin()
	matches, _ = e.SecondaryLookup(reader2, "accounts", "by_owner",
		storage.EncodeKey(storage.StringValue("alice")), DORARead())
	if len(matches) != 1 {
		t.Fatalf("rolled-back delete still hidden: %v", matches)
	}
	e.Commit(reader2)
}

func TestSecondaryLookupCarriesRoutingFields(t *testing.T) {
	e, tbl := newAccountsEngine(t)
	txn := e.Begin()
	mustInsert(t, e, txn, 1, 7, "smith", 10)
	mustInsert(t, e, txn, 2, 8, "smith", 20)
	e.Commit(txn)

	reader := e.Begin()
	matches, err := e.SecondaryLookup(reader, "accounts", "by_owner",
		storage.EncodeKey(storage.StringValue("smith")), DORARead())
	if err != nil {
		t.Fatalf("SecondaryLookup: %v", err)
	}
	if len(matches) != 2 {
		t.Fatalf("matches = %d, want 2", len(matches))
	}
	wantRouting := map[string]bool{
		storage.EncodeKey(storage.IntValue(7)).String(): true,
		storage.EncodeKey(storage.IntValue(8)).String(): true,
	}
	for _, m := range matches {
		if !wantRouting[m.Routing.String()] {
			t.Fatalf("unexpected routing key %s", m.Routing)
		}
		// The routing key lets a DORA dispatcher find the owning executor
		// and then the record is read through ProbeRID.
		tuple, err := e.ProbeRID(reader, "accounts", m.RID, DORARead())
		if err != nil || tuple[2].Str != "smith" {
			t.Fatalf("ProbeRID: %v %v", tuple, err)
		}
	}
	e.Commit(reader)
	if got := tbl.RoutingFields(); len(got) != 1 || got[0] != "branch" {
		t.Fatalf("RoutingFields = %v", got)
	}
}

func TestUpdateChangingSecondaryKeyMaintainsIndexes(t *testing.T) {
	e, _ := newAccountsEngine(t)
	txn := e.Begin()
	mustInsert(t, e, txn, 1, 10, "alice", 100)
	e.Commit(txn)

	upd := e.Begin()
	err := e.Update(upd, "accounts", pkOf(1), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
		tu[2] = storage.StringValue("alicia")
		return tu, nil
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	e.Commit(upd)

	reader := e.Begin()
	old, _ := e.SecondaryLookup(reader, "accounts", "by_owner",
		storage.EncodeKey(storage.StringValue("alice")), DORARead())
	if len(old) != 0 {
		t.Fatalf("stale secondary entry for old key: %v", old)
	}
	cur, _ := e.SecondaryLookup(reader, "accounts", "by_owner",
		storage.EncodeKey(storage.StringValue("alicia")), DORARead())
	if len(cur) != 1 {
		t.Fatalf("missing secondary entry for new key: %v", cur)
	}
	e.Commit(reader)
}

func TestScanTable(t *testing.T) {
	e, _ := newAccountsEngine(t)
	txn := e.Begin()
	for i := int64(1); i <= 20; i++ {
		mustInsert(t, e, txn, i, i%4, "owner", float64(i))
	}
	e.Commit(txn)

	reader := e.Begin()
	var sum float64
	count := 0
	if err := e.ScanTable(reader, "accounts", Conventional(), func(tu storage.Tuple) bool {
		sum += tu[3].Float
		count++
		return true
	}); err != nil {
		t.Fatalf("ScanTable: %v", err)
	}
	if count != 20 || sum != 210 {
		t.Fatalf("scan visited %d records, sum %v", count, sum)
	}
	// Early stop.
	count = 0
	e.ScanTable(reader, "accounts", Conventional(), func(tu storage.Tuple) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early-stop scan visited %d", count)
	}
	e.Commit(reader)
}

func TestDORAOptionsSkipHierarchy(t *testing.T) {
	e, tbl := newAccountsEngine(t)
	col := metrics.NewCollector()
	e.SetCollector(col)

	txn := e.Begin()
	// DORA insert: row lock only, no table intention locks.
	if _, err := e.Insert(txn, "accounts", account(1, 10, "alice", 100), DORAInsertDelete()); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// DORA probe/update: no centralized locks at all.
	if _, err := e.Probe(txn, "accounts", pkOf(1), DORARead()); err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if err := e.Update(txn, "accounts", pkOf(1), DORARead(), func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(1)
		return tu, nil
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	e.Commit(txn)

	census := col.LockCensus()
	// One row lock (the insert's RID lock) and one extent lock (first page
	// allocation); no table intention locks.
	if census[metrics.RowLock] != 1 {
		t.Fatalf("row locks = %d, want 1", census[metrics.RowLock])
	}
	if census[metrics.HigherLevelLock] != 1 {
		t.Fatalf("higher-level locks = %d, want 1 (extent only)", census[metrics.HigherLevelLock])
	}
	_ = tbl

	// Conventional execution of the same work acquires strictly more
	// centralized locks.
	col2 := metrics.NewCollector()
	e.SetCollector(col2)
	txn2 := e.Begin()
	if _, err := e.Insert(txn2, "accounts", account(2, 10, "bob", 5), Conventional()); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := e.Probe(txn2, "accounts", pkOf(2), Conventional()); err != nil {
		t.Fatalf("Probe: %v", err)
	}
	e.Commit(txn2)
	c2 := col2.LockCensus()
	if c2[metrics.HigherLevelLock] <= 0 {
		t.Fatal("conventional execution acquired no higher-level locks")
	}
	if c2[metrics.RowLock] < 1 {
		t.Fatal("conventional execution acquired no row locks")
	}
}

func TestConcurrentTransfersPreserveTotalBalance(t *testing.T) {
	e, _ := newAccountsEngine(t)
	setup := e.Begin()
	const numAccounts = 10
	for i := int64(0); i < numAccounts; i++ {
		mustInsert(t, e, setup, i, i%2, "acct", 100)
	}
	e.Commit(setup)

	var wg sync.WaitGroup
	const workers = 4
	const transfersPerWorker = 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < transfersPerWorker; i++ {
				from := (seed + int64(i)) % numAccounts
				to := (from + 1) % numAccounts
				txn := e.Begin()
				err := e.Update(txn, "accounts", pkOf(from), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
					tu[3] = storage.FloatValue(tu[3].Float - 1)
					return tu, nil
				})
				if err == nil {
					err = e.Update(txn, "accounts", pkOf(to), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
						tu[3] = storage.FloatValue(tu[3].Float + 1)
						return tu, nil
					})
				}
				if err != nil {
					e.Abort(txn)
					continue
				}
				if err := e.Commit(txn); err != nil {
					t.Errorf("Commit: %v", err)
				}
			}
		}(int64(w))
	}
	wg.Wait()

	check := e.Begin()
	var total float64
	e.ScanTable(check, "accounts", Conventional(), func(tu storage.Tuple) bool {
		total += tu[3].Float
		return true
	})
	e.Commit(check)
	if total != numAccounts*100 {
		t.Fatalf("total balance = %v, want %v (atomicity violated)", total, numAccounts*100)
	}
}

func TestConcurrentUpdatesUnderDifferentLocksLoseNothing(t *testing.T) {
	// A Baseline transaction (centralized row lock) and a DORA action (no
	// centralized lock) increment the same record concurrently, as when both
	// systems run over one engine: neither lock excludes the other, so only
	// the update's own atomicity keeps every increment.
	e, _ := newAccountsEngine(t)
	defer e.Close()
	txn := e.Begin()
	mustInsert(t, e, txn, 1, 1, "a", 0)
	if err := e.Commit(txn); err != nil {
		t.Fatal(err)
	}
	const perWriter = 300
	var wg sync.WaitGroup
	for _, opt := range []AccessOptions{Conventional(), {NoLock: true}} {
		wg.Add(1)
		go func(opt AccessOptions) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				txn := e.Begin()
				err := e.Update(txn, "accounts", pkOf(1), opt, func(tu storage.Tuple) (storage.Tuple, error) {
					tu[3] = storage.FloatValue(tu[3].Float + 1)
					return tu, nil
				})
				if err == nil {
					err = e.Commit(txn)
				}
				if err != nil {
					t.Errorf("increment %d: %v", i, err)
					return
				}
			}
		}(opt)
	}
	wg.Wait()
	check := e.Begin()
	got, err := e.Probe(check, "accounts", pkOf(1), Conventional())
	if err != nil || got[3].Float != 2*perWriter {
		t.Fatalf("balance = %v, %v; want %d (an increment was lost)", got, err, 2*perWriter)
	}
	e.Commit(check)
}

func TestRecoveryAfterCrash(t *testing.T) {
	e, _ := newAccountsEngine(t)
	committed := e.Begin()
	mustInsert(t, e, committed, 1, 10, "alice", 100)
	mustInsert(t, e, committed, 2, 20, "bob", 200)
	e.Commit(committed)

	// An in-flight transaction updates and inserts, then the "crash"
	// happens: its changes must not survive recovery.
	inflight := e.Begin()
	e.Update(inflight, "accounts", pkOf(1), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(999)
		return tu, nil
	})
	e.Insert(inflight, "accounts", account(3, 30, "carol", 300), Conventional())
	e.Log().FlushAll() // the log reaches the device, but no commit record

	// Build a fresh engine with the same schema and recover from the log.
	fresh := New(Config{BufferPoolFrames: 256})
	_, err := fresh.CreateTable(TableDef{
		Name: "accounts",
		Schema: storage.NewSchema(
			storage.Column{Name: "id", Kind: storage.KindInt},
			storage.Column{Name: "branch", Kind: storage.KindInt},
			storage.Column{Name: "owner", Kind: storage.KindString},
			storage.Column{Name: "balance", Kind: storage.KindFloat},
		),
		PrimaryKey:    []string{"id"},
		RoutingFields: []string{"branch"},
		Secondary: []SecondaryDef{
			{Name: "by_branch", Columns: []string{"branch"}},
			{Name: "by_owner", Columns: []string{"owner"}},
		},
	})
	if err != nil {
		t.Fatalf("CreateTable on fresh engine: %v", err)
	}
	stats, err := fresh.Recover(e.Log())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Winners != 1 || stats.Losers != 1 {
		t.Fatalf("recovery stats = %+v, want 1 winner / 1 loser", stats)
	}

	check := fresh.Begin()
	got, err := fresh.Probe(check, "accounts", pkOf(1), Conventional())
	if err != nil || got[3].Float != 100 {
		t.Fatalf("recovered record 1 = %v, %v (uncommitted update leaked?)", got, err)
	}
	if _, err := fresh.Probe(check, "accounts", pkOf(2), Conventional()); err != nil {
		t.Fatalf("committed record 2 lost: %v", err)
	}
	if _, err := fresh.Probe(check, "accounts", pkOf(3), Conventional()); !errors.Is(err, ErrNotFound) {
		t.Fatal("uncommitted insert survived recovery")
	}
	// Secondary indexes were rebuilt.
	m, err := fresh.SecondaryLookup(check, "accounts", "by_owner",
		storage.EncodeKey(storage.StringValue("bob")), DORARead())
	if err != nil || len(m) != 1 {
		t.Fatalf("rebuilt secondary lookup = %v, %v", m, err)
	}
	fresh.Commit(check)
}

func TestTraceHookRecordsAccesses(t *testing.T) {
	e, _ := newAccountsEngine(t)
	setup := e.Begin()
	mustInsert(t, e, setup, 1, 10, "alice", 100)
	e.Commit(setup)

	rec := NewTraceRecorder()
	e.SetTraceHook(rec.Record)
	txn := e.Begin()
	opt := Conventional()
	opt.WorkerID = 42
	if _, err := e.Probe(txn, "accounts", pkOf(1), opt); err != nil {
		t.Fatalf("Probe: %v", err)
	}
	e.Commit(txn)
	e.SetTraceHook(nil)

	events := rec.Events()
	if len(events) != 1 {
		t.Fatalf("trace events = %d, want 1", len(events))
	}
	ev := events[0]
	if ev.WorkerID != 42 || ev.Table != "accounts" || ev.Key != 10 {
		t.Fatalf("trace event = %+v", ev)
	}
	rec.Reset()
	if len(rec.Events()) != 0 {
		t.Fatal("Reset did not clear events")
	}
}

func TestTxnStateStrings(t *testing.T) {
	if TxnActive.String() != "active" || TxnCommitted.String() != "committed" || TxnAborted.String() != "aborted" {
		t.Fatal("unexpected state labels")
	}
	e, _ := newAccountsEngine(t)
	txn := e.Begin()
	if !txn.Active() || txn.ID() == 0 {
		t.Fatal("fresh transaction should be active with a non-zero id")
	}
	e.Commit(txn)
	if txn.State() != TxnCommitted {
		t.Fatal("state should be committed")
	}
}
