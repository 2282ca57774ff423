package engine

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dora/internal/storage"
	"dora/internal/wal"
)

// openAccountsSeg opens a file-backed engine with a small WAL segment size so
// checkpoints have whole segments to reclaim.
func openAccountsSeg(t *testing.T, dir string, seg int64) (*Engine, wal.RecoveryStats) {
	t.Helper()
	e, stats, err := Open(dir, Config{BufferPoolFrames: 256, LogSync: wal.SyncOnFlush, LogSegmentSize: seg})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return e, stats
}

// commitAccounts inserts ids [lo,hi] one committed transaction each.
func commitAccounts(t *testing.T, e *Engine, lo, hi int64) {
	t.Helper()
	for id := lo; id <= hi; id++ {
		txn := e.Begin()
		mustInsert(t, e, txn, id, id%7, "holder", float64(id))
		if err := e.Commit(txn); err != nil {
			t.Fatalf("Commit(%d): %v", id, err)
		}
	}
}

func segCount(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

func mustCheckpoint(t *testing.T, e *Engine) CheckpointStats {
	t.Helper()
	st, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return st
}

// flipByte corrupts a file in the middle of its contents.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTripBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccountsSeg(t, dir, 1024)
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	commitAccounts(t, e, 1, 50)
	before := segCount(t, dir)

	st := mustCheckpoint(t, e)
	if st.Tables != 1 || st.Records != 50 {
		t.Fatalf("checkpoint stats = %+v, want 1 table / 50 records", st)
	}
	if st.LowLSN != st.CutLSN {
		t.Fatalf("no transaction was in flight, want low == cut, got %d != %d", st.LowLSN, st.CutLSN)
	}
	if segCount(t, dir) >= before {
		t.Fatalf("truncation reclaimed nothing (%d -> %d segments)", before, segCount(t, dir))
	}
	if st.TailBase <= 1 {
		t.Fatalf("TailBase = %d after truncation, want > 1", st.TailBase)
	}

	// Work after the cut: an update of checkpointed state and fresh inserts.
	txn := e.Begin()
	if err := e.Update(txn, "accounts", pkOf(1), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(1234)
		return tu, nil
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := e.Commit(txn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	commitAccounts(t, e, 51, 60)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2, stats := openAccountsSeg(t, dir, 1024)
	defer e2.Close()
	if stats.CheckpointLSN != st.CutLSN || stats.CheckpointRecords != 50 {
		t.Fatalf("recovery did not start from the image: %+v, want cut %d / 50 records", stats, st.CutLSN)
	}
	// The replay is the tail only: 11 transactions since the cut, not 61.
	if stats.Winners != 11 {
		t.Fatalf("replayed %d winners, want only the 11 post-checkpoint ones", stats.Winners)
	}
	tbl, err := e2.Table("accounts")
	if err != nil || tbl.NumRecords() != 60 {
		t.Fatalf("after image recovery: table %v, %d records, want 60", err, tbl.NumRecords())
	}
	check := e2.Begin()
	if tu, err := e2.Probe(check, "accounts", pkOf(1), Conventional()); err != nil || tu[3].Float != 1234 {
		t.Fatalf("post-cut update lost: %v, %v", tu, err)
	}
	if tu, err := e2.Probe(check, "accounts", pkOf(37), Conventional()); err != nil || tu[3].Float != 37 {
		t.Fatalf("image record lost: %v, %v", tu, err)
	}
	if matches, err := e2.SecondaryLookup(check, "accounts", "by_branch",
		storage.EncodeKey(storage.IntValue(3)), Conventional()); err != nil || len(matches) == 0 {
		t.Fatalf("secondary index not rebuilt over image records: %v, %v", matches, err)
	}
	if err := e2.Commit(check); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestCheckpointIdleSkipAndRetention(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccountsSeg(t, dir, 1024)
	defer e.Close()
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatal(err)
	}
	var cuts []wal.LSN
	for i := int64(0); i < 4; i++ {
		commitAccounts(t, e, 1+i*10, (i+1)*10)
		cuts = append(cuts, mustCheckpoint(t, e).CutLSN)
	}
	// Retention keeps the newest two images only.
	files := findCheckpointFiles(dir)
	if len(files) != ckptRetain {
		t.Fatalf("retained %d images, want %d", len(files), ckptRetain)
	}
	if files[0].cut != cuts[3] || files[1].cut != cuts[2] {
		t.Fatalf("retained cuts %d/%d, want newest %d/%d", files[0].cut, files[1].cut, cuts[3], cuts[2])
	}
	// With nothing logged since, a new run reuses the previous checkpoint.
	again := mustCheckpoint(t, e)
	if again.CutLSN != cuts[3] || len(findCheckpointFiles(dir)) != ckptRetain {
		t.Fatalf("idle checkpoint wrote a new image: %+v", again)
	}
}

func TestCheckpointCorruptNewestFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccountsSeg(t, dir, 1024)
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatal(err)
	}
	commitAccounts(t, e, 1, 20)
	st1 := mustCheckpoint(t, e)
	commitAccounts(t, e, 21, 40)
	st2 := mustCheckpoint(t, e)
	commitAccounts(t, e, 41, 45)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	files := findCheckpointFiles(dir)
	if len(files) != 2 || files[0].cut != st2.CutLSN {
		t.Fatalf("expected 2 images newest-first, got %v", files)
	}
	flipByte(t, files[0].path)

	e2, stats := openAccountsSeg(t, dir, 1024)
	defer e2.Close()
	if stats.CheckpointLSN != st1.CutLSN {
		t.Fatalf("recovery used cut %d, want fallback to older image at %d", stats.CheckpointLSN, st1.CutLSN)
	}
	tbl, _ := e2.Table("accounts")
	if tbl.NumRecords() != 45 {
		t.Fatalf("fallback recovery holds %d records, want 45", tbl.NumRecords())
	}
}

func TestCheckpointDeletedNewestFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccountsSeg(t, dir, 1024)
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatal(err)
	}
	commitAccounts(t, e, 1, 20)
	st1 := mustCheckpoint(t, e)
	commitAccounts(t, e, 21, 40)
	mustCheckpoint(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	files := findCheckpointFiles(dir)
	if err := os.Remove(files[0].path); err != nil {
		t.Fatal(err)
	}
	e2, stats := openAccountsSeg(t, dir, 1024)
	defer e2.Close()
	if stats.CheckpointLSN != st1.CutLSN {
		t.Fatalf("recovery used cut %d, want older image at %d", stats.CheckpointLSN, st1.CutLSN)
	}
	tbl, _ := e2.Table("accounts")
	if tbl.NumRecords() != 40 {
		t.Fatalf("fallback recovery holds %d records, want 40", tbl.NumRecords())
	}
}

func TestCheckpointTornFinalFrameFallsBack(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccountsSeg(t, dir, 1024)
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatal(err)
	}
	commitAccounts(t, e, 1, 20)
	st1 := mustCheckpoint(t, e)
	commitAccounts(t, e, 21, 40)
	mustCheckpoint(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the trailer off the newest image: the loader must reject it as
	// torn (missing trailer) and recovery must fall back.
	newest := findCheckpointFiles(dir)[0]
	st, err := os.Stat(newest.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest.path, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpointFile(newest.path); err == nil {
		t.Fatal("torn image passed verification")
	}
	e2, stats := openAccountsSeg(t, dir, 1024)
	defer e2.Close()
	if stats.CheckpointLSN != st1.CutLSN {
		t.Fatalf("recovery used cut %d, want older image at %d", stats.CheckpointLSN, st1.CutLSN)
	}
}

func TestCheckpointAllImagesCorruptOnTruncatedLogRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccountsSeg(t, dir, 1024)
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatal(err)
	}
	commitAccounts(t, e, 1, 20)
	mustCheckpoint(t, e)
	commitAccounts(t, e, 21, 40)
	st2 := mustCheckpoint(t, e)
	if st2.TailBase <= 1 {
		t.Fatalf("log was never truncated (base %d); test needs a truncated log", st2.TailBase)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range findCheckpointFiles(dir) {
		flipByte(t, f.path)
	}
	if _, _, err := Open(dir, Config{BufferPoolFrames: 256, LogSync: wal.SyncOnFlush, LogSegmentSize: 1024}); err == nil {
		t.Fatal("Open succeeded on a truncated log with no usable checkpoint image")
	}
}

func TestCheckpointUnusableImageOnFullLogFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccountsSeg(t, dir, 1024)
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatal(err)
	}
	commitAccounts(t, e, 1, 30)

	// Abort the run after the image is durable but before the marker record
	// and truncation: the log still starts at LSN 1.
	injected := errors.New("injected")
	e.SetCheckpointFaultHook(func(point string) error {
		if point == "image-renamed" {
			return injected
		}
		return nil
	})
	if _, err := e.Checkpoint(); !errors.Is(err, injected) {
		t.Fatalf("fault at image-renamed not surfaced: %v", err)
	}
	e.SetCheckpointFaultHook(nil)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	files := findCheckpointFiles(dir)
	if len(files) != 1 {
		t.Fatalf("expected the renamed image on disk, got %v", files)
	}
	flipByte(t, files[0].path)

	e2, stats := openAccountsSeg(t, dir, 1024)
	defer e2.Close()
	if stats.CheckpointLSN != 0 {
		t.Fatalf("recovery claims a checkpoint (%d) but the only image is corrupt", stats.CheckpointLSN)
	}
	tbl, _ := e2.Table("accounts")
	if tbl.NumRecords() != 30 {
		t.Fatalf("full replay holds %d records, want 30", tbl.NumRecords())
	}
}

func TestCheckpointAbortBeforeRenameLeavesOnlyTmp(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccountsSeg(t, dir, 1024)
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatal(err)
	}
	commitAccounts(t, e, 1, 10)
	injected := errors.New("injected")
	e.SetCheckpointFaultHook(func(point string) error {
		if point == "image-synced" {
			return injected
		}
		return nil
	})
	if _, err := e.Checkpoint(); !errors.Is(err, injected) {
		t.Fatalf("fault at image-synced not surfaced: %v", err)
	}
	if got := findCheckpointFiles(dir); len(got) != 0 {
		t.Fatalf("unrenamed checkpoint visible as %v", got)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 1 {
		t.Fatalf("expected exactly the .tmp debris, got %v", tmps)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, stats := openAccountsSeg(t, dir, 1024)
	defer e2.Close()
	if stats.CheckpointLSN != 0 {
		t.Fatalf(".tmp debris was treated as a checkpoint: %+v", stats)
	}
	tbl, _ := e2.Table("accounts")
	if tbl.NumRecords() != 10 {
		t.Fatalf("recovery holds %d records, want 10", tbl.NumRecords())
	}
}

func TestTruncationNeverRunsAheadOfVerifiedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccountsSeg(t, dir, 1024)
	defer e.Close()
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatal(err)
	}
	commitAccounts(t, e, 1, 30)
	before := segCount(t, dir)

	// Abort every run before its truncation step, at different points: in no
	// case may a segment disappear, because no VERIFIED image covers the cut
	// yet when the abort fires.
	injected := errors.New("injected")
	for _, point := range []string{"begin", "image-header", "image-written", "image-synced", "pre-truncate"} {
		e.SetCheckpointFaultHook(func(p string) error {
			if p == point {
				return injected
			}
			return nil
		})
		if _, err := e.Checkpoint(); !errors.Is(err, injected) {
			t.Fatalf("fault at %s not surfaced: %v", point, err)
		}
		if got := segCount(t, dir); got != before {
			t.Fatalf("abort at %s still truncated the log (%d -> %d segments)", point, before, got)
		}
	}
	e.SetCheckpointFaultHook(nil)
}

func TestCheckpointWithInFlightTransactionIsFuzzy(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccountsSeg(t, dir, 4096)
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatal(err)
	}
	commitAccounts(t, e, 1, 10)

	// Transaction A spans the cut and commits after it; transaction B spans
	// the cut and never commits (lost in the crash).
	txnA := e.Begin()
	mustInsert(t, e, txnA, 100, 1, "spanner", 1)
	txnB := e.Begin()
	mustInsert(t, e, txnB, 200, 2, "loser", 2)

	st := mustCheckpoint(t, e)
	if st.LowLSN >= st.CutLSN {
		t.Fatalf("in-flight transactions must push the replay horizon below the cut: low %d, cut %d", st.LowLSN, st.CutLSN)
	}
	if err := e.Commit(txnA); err != nil {
		t.Fatalf("Commit(A): %v", err)
	}
	e.Log().FlushAll()

	// Crash with B still open: snapshot the directory from under the live
	// engine and recover the copy.
	crashDir := copyLogDir(t, dir)
	e2, stats := openAccountsSeg(t, crashDir, 4096)
	defer e2.Close()
	defer e.Close()
	if stats.CheckpointLSN != st.CutLSN {
		t.Fatalf("recovery used cut %d, want %d", stats.CheckpointLSN, st.CutLSN)
	}
	if stats.Losers == 0 {
		t.Fatal("open transaction B was not rolled back")
	}
	check := e2.Begin()
	if tu, err := e2.Probe(check, "accounts", pkOf(100), Conventional()); err != nil || tu[2].Str != "spanner" {
		t.Fatalf("cut-spanning committed transaction lost: %v, %v", tu, err)
	}
	if _, err := e2.Probe(check, "accounts", pkOf(200), Conventional()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted cut-spanning transaction survived: %v", err)
	}
	tbl, _ := e2.Table("accounts")
	if tbl.NumRecords() != 11 {
		t.Fatalf("recovered %d records, want 11", tbl.NumRecords())
	}
}

// After a checkpointed restart, a snapshot covers every pre-crash commit
// (the reopened log's durable watermark is at or above the pre-crash
// horizon), the transaction-id watermark comes back from the image header,
// and the horizon advances with new commits.
func TestCheckpointRestoresHorizonAndTxnWatermarks(t *testing.T) {
	dir := t.TempDir()
	e, _ := openAccountsSeg(t, dir, 1024)
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatal(err)
	}
	commitAccounts(t, e, 1, 5)
	for i := 0; i < 3; i++ {
		txn := e.Begin()
		if err := e.Update(txn, "accounts", pkOf(1), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
			tu[3] = storage.FloatValue(tu[3].Float + 50)
			return tu, nil
		}); err != nil {
			t.Fatalf("Update: %v", err)
		}
		if err := e.Commit(txn); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	ck := mustCheckpoint(t, e)
	pre := e.BeginSnapshot()
	preHorizon := pre.Horizon()
	pre.Release()
	if preHorizon < ck.CutLSN-1 {
		t.Fatalf("pre-crash horizon %d below the checkpoint cut %d", preHorizon, ck.CutLSN)
	}
	preTxn := e.nextTxn.Load()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery starts from the image; the tail past the cut holds no
	// committed transaction, so the state comes from the image alone.
	e2, stats := openAccountsSeg(t, dir, 1024)
	defer e2.Close()
	if stats.CheckpointLSN == 0 {
		t.Fatalf("recovery did not use the checkpoint: %+v", stats)
	}
	if got := e2.nextTxn.Load(); got < preTxn {
		t.Fatalf("transaction-id watermark went backwards: %d < %d", got, preTxn)
	}

	// Version chains collapse to the heap base case: a snapshot at the
	// restored horizon reads the image state, and a snapshot pinned before a
	// post-restart commit still does.
	snap := e2.BeginSnapshot()
	restored := snap.Horizon()
	if restored < preHorizon {
		t.Fatalf("restored horizon %d is below the pre-crash horizon %d", restored, preHorizon)
	}
	if tu, err := snap.Probe("accounts", pkOf(1)); err != nil || tu[3].Float != 151 {
		t.Fatalf("snapshot probe = %v, %v (want balance 151)", tu, err)
	}
	snap.Release()

	old := e2.BeginSnapshot()
	defer old.Release()
	txn := e2.Begin()
	if err := e2.Update(txn, "accounts", pkOf(1), Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(9999)
		return tu, nil
	}); err != nil {
		t.Fatalf("post-reopen Update: %v", err)
	}
	if err := e2.Commit(txn); err != nil {
		t.Fatalf("post-reopen Commit: %v", err)
	}
	post := e2.BeginSnapshot()
	defer post.Release()
	if post.Horizon() <= restored {
		t.Fatalf("horizon did not advance past the restored value: %d <= %d", post.Horizon(), restored)
	}
	if tu, err := post.Probe("accounts", pkOf(1)); err != nil || tu[3].Float != 9999 {
		t.Fatalf("snapshot after post-reopen commit = %v, %v (want 9999)", tu, err)
	}
	if tu, err := old.Probe("accounts", pkOf(1)); err != nil || tu[3].Float != 151 {
		t.Fatalf("pinned snapshot sees %v, %v, want the pre-commit balance 151", tu, err)
	}
}

func TestCheckpointInMemoryEngineRefuses(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	if _, err := e.Checkpoint(); !errors.Is(err, ErrNoCheckpointDir) {
		t.Fatalf("in-memory Checkpoint = %v, want ErrNoCheckpointDir", err)
	}
}
