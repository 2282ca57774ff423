package engine

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dora/internal/storage"
	"dora/internal/wal"
)

// tearLastSegment truncates the highest-LSN segment file by n bytes,
// simulating a crash mid-device-write. Segment names embed the first LSN as
// zero-padded hex, so lexical order is LSN order.
func tearLastSegment(t *testing.T, dir string, n int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= n {
		t.Fatalf("segment %s too small to tear (%d bytes)", last, st.Size())
	}
	if err := os.Truncate(last, st.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// copyLogDir snapshots a live log directory's segment files into a fresh
// directory — the on-disk image a crash would leave. (The live engine still
// holds the original directory's flock, exactly as a crashed-but-running
// process would; recovery is exercised on the snapshot.)
func copyLogDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(src, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to snapshot in %s: %v", src, err)
	}
	// Checkpoint images (and any half-written .tmp debris) are part of the
	// crash state too.
	for _, pat := range []string{"ckpt-*.img", "*.tmp"} {
		extra, _ := filepath.Glob(filepath.Join(src, pat))
		segs = append(segs, extra...)
	}
	for _, s := range segs {
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(s)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// accountsDef is the table definition shared by the Open tests.
func accountsDef() TableDef {
	return TableDef{
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
	}
}

func openAccounts(t *testing.T, dir string) (*Engine, wal.RecoveryStats) {
	t.Helper()
	e, stats, err := Open(dir, Config{BufferPoolFrames: 256, LogSync: wal.SyncOnFlush})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return e, stats
}

func TestTableDefCodecRoundTrip(t *testing.T) {
	def := accountsDef()
	enc, err := encodeTableDef(def)
	if err != nil {
		t.Fatalf("encodeTableDef: %v", err)
	}
	got, err := decodeTableDef(enc)
	if err != nil {
		t.Fatalf("decodeTableDef: %v", err)
	}
	if got.Name != def.Name || len(got.PrimaryKey) != 1 || got.PrimaryKey[0] != "id" ||
		len(got.RoutingFields) != 1 || got.RoutingFields[0] != "branch" ||
		got.Schema.NumColumns() != 4 || len(got.Secondary) != 2 ||
		got.Secondary[1].Name != "by_owner" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Schema.Columns[3].Kind != storage.KindFloat {
		t.Fatalf("column kind lost: %+v", got.Schema.Columns)
	}
}

func TestOpenCleanRestartPreservesState(t *testing.T) {
	dir := t.TempDir()
	e, stats := openAccounts(t, dir)
	if stats.Analyzed != 0 {
		t.Fatalf("fresh directory analyzed %d records", stats.Analyzed)
	}
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	txn := e.Begin()
	mustInsert(t, e, txn, 1, 10, "alice", 100)
	mustInsert(t, e, txn, 2, 20, "bob", 250)
	if err := e.Commit(txn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the catalog comes back from the schema records and the data
	// from the redo pass — no CreateTable, no reload.
	e2, stats := openAccounts(t, dir)
	defer e2.Close()
	if stats.Winners != 1 || stats.Redone != 2 {
		t.Fatalf("reopen stats = %+v, want 1 winner / 2 redone", stats)
	}
	tbl, err := e2.Table("accounts")
	if err != nil {
		t.Fatalf("catalog not rebuilt: %v", err)
	}
	if tbl.NumRecords() != 2 {
		t.Fatalf("NumRecords after reopen = %d, want 2", tbl.NumRecords())
	}
	check := e2.Begin()
	tu, err := e2.Probe(check, "accounts", pkOf(2), Conventional())
	if err != nil || tu[3].Float != 250 {
		t.Fatalf("Probe after reopen = %v, %v", tu, err)
	}
	// Secondary indexes were rebuilt too.
	matches, err := e2.SecondaryLookup(check, "accounts", "by_owner",
		storage.EncodeKey(storage.StringValue("alice")), Conventional())
	if err != nil || len(matches) != 1 {
		t.Fatalf("secondary lookup after reopen = %v, %v", matches, err)
	}
	if err := e2.Commit(check); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// The reopened engine keeps accepting work that survives another cycle.
	txn2 := e2.Begin()
	mustInsert(t, e2, txn2, 3, 10, "carol", 75)
	if err := e2.Commit(txn2); err != nil {
		t.Fatalf("Commit on reopened engine: %v", err)
	}
	e2.Close()
	e3, _ := openAccounts(t, dir)
	defer e3.Close()
	tbl3, _ := e3.Table("accounts")
	if tbl3.NumRecords() != 3 {
		t.Fatalf("records after second reopen = %d, want 3", tbl3.NumRecords())
	}
}

func TestOpenAfterCrashRollsBackLosers(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccounts(t, dir)
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	txn := e.Begin()
	mustInsert(t, e, txn, 1, 10, "alice", 100)
	if err := e.Commit(txn); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// An in-flight transaction updates the committed row and inserts a new
	// one; its records reach the device but no commit record does. Then the
	// process "dies": the engine is abandoned without Close.
	loser := e.Begin()
	if err := e.Update(loser, "accounts", pkOf(1), Conventional(),
		func(tu storage.Tuple) (storage.Tuple, error) {
			tu[3] = storage.FloatValue(9999)
			return tu, nil
		}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	mustInsert(t, e, loser, 2, 20, "mallory", 1)
	e.Log().FlushAll()

	// The crash image: the abandoned engine still owns dir's flock (like a
	// crashed-but-unreaped process), so recovery runs on a disk snapshot.
	e2, stats := openAccounts(t, copyLogDir(t, dir))
	defer e2.Close()
	if stats.Losers != 1 || stats.Undone == 0 {
		t.Fatalf("crash reopen stats = %+v, want 1 loser with undone work", stats)
	}
	tbl, _ := e2.Table("accounts")
	if tbl.NumRecords() != 1 {
		t.Fatalf("loser insert survived: %d records", tbl.NumRecords())
	}
	check := e2.Begin()
	tu, err := e2.Probe(check, "accounts", pkOf(1), Conventional())
	if err != nil || tu[3].Float != 100 {
		t.Fatalf("loser update leaked: %v, %v", tu, err)
	}
	e2.Commit(check)

	// New transactions must not collide with replayed transaction ids.
	if e2.Begin().ID() <= loser.ID() {
		t.Fatal("transaction ids not resumed above the replayed log")
	}
}

func TestOpenOnTornLogRecovers(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccounts(t, dir)
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for i := int64(1); i <= 5; i++ {
		txn := e.Begin()
		mustInsert(t, e, txn, i, i*10, "acct", float64(i)*100)
		if err := e.Commit(txn); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the log tail mid-frame, deep enough to cut into the last commit
	// group's frame (past the trailing END-record frame); the last commit is
	// lost but the engine must come back consistent on the surviving prefix.
	tearLastSegment(t, dir, 120)

	e2, stats := openAccounts(t, dir)
	defer e2.Close()
	tbl, err := e2.Table("accounts")
	if err != nil {
		t.Fatalf("catalog lost after torn tail: %v", err)
	}
	if tbl.NumRecords() >= 5 || stats.Analyzed == 0 {
		t.Fatalf("torn tail not truncated: %d records, stats %+v", tbl.NumRecords(), stats)
	}
	// Every surviving record is a complete committed insert.
	check := e2.Begin()
	n := 0
	if err := e2.ScanTable(check, "accounts", Conventional(), func(tu storage.Tuple) bool {
		if tu[3].Float != float64(tu[0].Int)*100 {
			t.Fatalf("corrupt surviving record: %v", tu)
		}
		n++
		return true
	}); err != nil {
		t.Fatalf("ScanTable: %v", err)
	}
	if n != tbl.NumRecords() {
		t.Fatalf("scan saw %d records, index says %d", n, tbl.NumRecords())
	}
	e2.Commit(check)
}

func TestOpenRejectsRecoveryOnClosedManagerSemantics(t *testing.T) {
	// Engine.Recover over a closed crashed manager must surface wal.ErrClosed
	// rather than silently appending to a final log image.
	e, _ := newAccountsEngine(t)
	txn := e.Begin()
	mustInsert(t, e, txn, 1, 1, "a", 1)
	if err := e.Commit(txn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fresh, _ := newAccountsEngine(t)
	defer fresh.Close()
	if _, err := fresh.Recover(e.Log()); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Recover over closed log = %v, want wal.ErrClosed", err)
	}
}

// Restart-then-snapshot: the reopened engine's snapshots pin the reopened
// log's durable watermark, which covers every pre-crash commit. Version
// chains rebuild collapsed to the latest committed version (the no-chain heap
// base), and the horizon advances past the restored one with new commits.
func TestOpenRestoresSnapshotHorizon(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccounts(t, dir)
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	txn := e.Begin()
	mustInsert(t, e, txn, 1, 10, "alice", 100)
	if err := e.Commit(txn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	for i := 0; i < 3; i++ {
		txn := e.Begin()
		if err := e.Update(txn, "accounts", pkOf(1), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
			tu[3] = storage.FloatValue(tu[3].Float + 50)
			return tu, nil
		}); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
		if err := e.Commit(txn); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	pre := e.BeginSnapshot()
	preCrash := pre.Horizon()
	pre.Release()
	if preCrash == 0 {
		t.Fatal("snapshot horizon never advanced")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2, _ := openAccounts(t, dir)
	defer e2.Close()

	// A snapshot over the reopened engine covers every pre-crash commit and
	// sees the latest committed state.
	snap := e2.BeginSnapshot()
	restored := snap.Horizon()
	if restored < preCrash {
		t.Fatalf("restored horizon %d is below the pre-crash horizon %d", restored, preCrash)
	}
	tu, err := snap.Probe("accounts", pkOf(1))
	if err != nil || tu[3].Float != 250 {
		t.Fatalf("snapshot probe after reopen = %v, %v (want balance 250)", tu, err)
	}
	snap.Release()

	// New commits advance the horizon past the restored one, and a snapshot
	// pinned before them still reads the replayed state.
	old := e2.BeginSnapshot()
	defer old.Release()
	txn2 := e2.Begin()
	if err := e2.Update(txn2, "accounts", pkOf(1), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(999)
		return tu, nil
	}); err != nil {
		t.Fatalf("post-reopen Update: %v", err)
	}
	if err := e2.Commit(txn2); err != nil {
		t.Fatalf("post-reopen Commit: %v", err)
	}
	post := e2.BeginSnapshot()
	defer post.Release()
	if post.Horizon() <= restored {
		t.Fatalf("horizon did not advance past the restored value: %d <= %d", post.Horizon(), restored)
	}
	if tu, err := post.Probe("accounts", pkOf(1)); err != nil || tu[3].Float != 999 {
		t.Fatalf("snapshot after post-reopen commit = %v, %v (want 999)", tu, err)
	}
	if tu, err := old.Probe("accounts", pkOf(1)); err != nil || tu[3].Float != 250 {
		t.Fatalf("pinned snapshot after post-reopen commit = %v, %v (want 250)", tu, err)
	}
}
