package tpcc

import (
	"errors"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/wal"
	"dora/internal/workload"
)

// The checkpoint crash matrix: one cell per fault-injection point of the
// checkpoint/truncation protocol (engine.CheckpointFaultHook). Each cell runs
// TPC-C traffic over a file-backed engine, completes one clean checkpoint (so
// retention and truncation are active), injects a crash at the cell's point
// during a second checkpoint, keeps running, crashes the whole process
// (directory snapshot, like a SIGKILL would leave), restarts from disk alone,
// and gates on the §3.3.2 consistency checker — before and after post-restart
// traffic. Deterministic: single-goroutine traffic from seeded rngs, faults
// injected synchronously by the hook. The faulted checkpoint is the third of
// the run: the first two fill the retention window so the third exercises
// image retirement and an actually-advancing truncation.
var crashMatrixPoints = []string{
	"none", // control: second checkpoint completes
	"begin",
	"image-header",
	"image-written",
	"image-synced",
	"image-renamed",
	"record-logged",
	"retired",
	"pre-truncate",
	"mid-truncate",
	"truncated",
}

// newCkptBacked opens a small file-backed TPC-C database with WAL segments
// small enough that checkpoints have segments to reclaim.
func newCkptBacked(t *testing.T, dir string) (*Driver, *engine.Engine, wal.RecoveryStats) {
	t.Helper()
	d := New(1)
	d.CustomersPerDistrict = 20
	d.Items = 50
	e, stats, err := engine.Open(dir, engine.Config{
		BufferPoolFrames: 4096, LogSync: wal.SyncOnFlush, LogSegmentSize: 32 << 10,
	})
	if err != nil {
		t.Fatalf("engine.Open(%s): %v", dir, err)
	}
	if len(e.Tables()) == 0 {
		if err := d.CreateTables(e); err != nil {
			t.Fatalf("CreateTables: %v", err)
		}
		if err := d.Load(e, rand.New(rand.NewSource(1))); err != nil {
			t.Fatalf("Load: %v", err)
		}
	}
	return d, e, stats
}

func runMix(t *testing.T, d *Driver, e *engine.Engine, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		kind := d.Mix().Pick(rng)
		if err := d.RunBaseline(e, kind, rng, 0); err != nil && !errors.Is(err, workload.ErrAborted) {
			t.Fatalf("traffic %s: %v", kind, err)
		}
	}
}

// snapshotDir copies the WAL segments, checkpoint images, and any
// half-written .tmp debris — the exact on-disk state a crash would leave (the
// live engine still holds the original directory's flock).
func snapshotDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	var files []string
	for _, pat := range []string{"wal-*.seg", "ckpt-*.img", "*.tmp"} {
		m, err := filepath.Glob(filepath.Join(src, pat))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatalf("nothing to snapshot in %s", src)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestCheckpointCrashMatrix(t *testing.T) {
	for _, point := range crashMatrixPoints {
		point := point
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			d, e, _ := newCkptBacked(t, dir)
			rng := rand.New(rand.NewSource(11))
			runMix(t, d, e, rng, 150)

			// Two clean checkpoints first. After them the retention window
			// is full, so the faulted third run exercises every step for
			// real: it retires the oldest image AND advances the truncation
			// horizon (truncation lags one image — it only moves when the
			// oldest retained image does).
			st1, err := e.Checkpoint()
			if err != nil {
				t.Fatalf("first checkpoint: %v", err)
			}
			if st1.TailBase <= 1 {
				t.Fatalf("first checkpoint reclaimed nothing (base %d); traffic too small for the matrix", st1.TailBase)
			}
			runMix(t, d, e, rng, 100)
			if _, err := e.Checkpoint(); err != nil {
				t.Fatalf("second checkpoint: %v", err)
			}
			runMix(t, d, e, rng, 100)

			injected := errors.New("injected crash")
			fired := false
			if point != "none" {
				e.SetCheckpointFaultHook(func(p string) error {
					if p == point {
						fired = true
						return injected
					}
					return nil
				})
			}
			_, err = e.Checkpoint()
			if point == "none" {
				if err != nil {
					t.Fatalf("clean third checkpoint: %v", err)
				}
			} else {
				if !fired || !errors.Is(err, injected) {
					t.Fatalf("fault at %s did not fire (fired=%v err=%v)", point, fired, err)
				}
			}
			e.SetCheckpointFaultHook(nil)

			// The engine survives the aborted checkpoint and keeps serving;
			// then the process "crashes" with this traffic's tail in flight.
			runMix(t, d, e, rng, 50)
			if err := d.Check(e); err != nil {
				t.Fatalf("pre-crash invariants after fault at %s: %v", point, err)
			}
			e.Log().FlushAll()
			crashDir := snapshotDir(t, dir)

			d2, e2, stats := newCkptBacked(t, crashDir)
			defer e2.Close()
			if stats.CheckpointLSN == 0 {
				t.Fatalf("recovery at cell %s ignored every checkpoint image", point)
			}
			if err := d2.Check(e2); err != nil {
				t.Fatalf("§3.3.2 checker after crash at %s: %v", point, err)
			}
			runMix(t, d2, e2, rand.New(rand.NewSource(13)), 50)
			if err := d2.Check(e2); err != nil {
				t.Fatalf("§3.3.2 checker after post-restart traffic (%s): %v", point, err)
			}
		})
	}
}

// A transaction whose COMMIT record sits below a checkpoint's cut is in the
// image even when its END record lands after the cut, leaving it in the
// cut's active set. Here a NewOrder is checkpointed from inside its early
// lock release callback, which runs between the COMMIT append and the END.
// Restart from that image must not replay the NewOrder on top of it: its
// rows appear exactly once and the §3.3.2 checker passes.
func TestCheckpointCommitBelowCutAppliedOnce(t *testing.T) {
	dir := t.TempDir()
	d, e, _ := newCkptBacked(t, dir)
	rng := rand.New(rand.NewSource(17))
	runMix(t, d, e, rng, 50)

	var txn *engine.Txn
	for {
		txn = e.Begin()
		err := d.newOrderConventional(e, txn, d.genNewOrder(rng), engine.Conventional())
		if err == nil {
			break
		}
		e.Abort(txn) //nolint:errcheck
		if !abortable(err) {
			t.Fatalf("NewOrder: %v", err)
		}
	}
	var ck engine.CheckpointStats
	var ckErr error
	done := make(chan error, 1)
	e.CommitAsyncEarly(txn, func() { ck, ckErr = e.Checkpoint() }, func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatalf("NewOrder commit: %v", err)
	}
	if ckErr != nil {
		t.Fatalf("checkpoint inside the commit: %v", ckErr)
	}

	// The scenario under test: COMMIT below the cut, END after it.
	recs, err := e.Log().Records()
	if err != nil {
		t.Fatal(err)
	}
	var commitLSN, endLSN wal.LSN
	for _, r := range recs {
		if r.Txn != wal.TxnID(txn.ID()) {
			continue
		}
		switch r.Type {
		case wal.RecCommit:
			commitLSN = r.LSN
		case wal.RecEnd:
			endLSN = r.LSN
		}
	}
	if commitLSN == 0 || commitLSN >= ck.CutLSN || endLSN <= ck.CutLSN {
		t.Fatalf("COMMIT at %d, END at %d, cut at %d: want COMMIT below the cut and END after it",
			commitLSN, endLSN, ck.CutLSN)
	}

	want := orderCounts(t, e)
	e.Log().FlushAll()
	crashDir := snapshotDir(t, dir)

	d2, e2, stats := newCkptBacked(t, crashDir)
	defer e2.Close()
	if stats.CheckpointLSN != ck.CutLSN {
		t.Fatalf("recovery started from cut %d, want the in-commit checkpoint's %d", stats.CheckpointLSN, ck.CutLSN)
	}
	if got := orderCounts(t, e2); !maps.Equal(got, want) {
		t.Fatalf("row counts after restart = %v, want %v", got, want)
	}
	if err := d2.Check(e2); err != nil {
		t.Fatalf("§3.3.2 checker after restart: %v", err)
	}
}

// orderCounts returns the row counts of the tables a NewOrder inserts into,
// read through a snapshot.
func orderCounts(t *testing.T, e *engine.Engine) map[string]int {
	t.Helper()
	snap := e.BeginSnapshot()
	defer snap.Release()
	out := make(map[string]int)
	for _, name := range []string{"ORDERS", "NEW_ORDER", "ORDER_LINE"} {
		if err := snap.ScanTable(name, func(storage.Tuple) bool { out[name]++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// A transaction's BEGIN is written just before its first change, not at
// Begin. T1 reads before a checkpoint cut and writes after it, so all of its
// records, BEGIN included, sit above the cut: it is not in the cut's active
// set and replays from the log tail. T2 writes before the cut and commits
// after it: it is in the active set and replays from its BEGIN below the
// cut. Restart from that image must apply each NewOrder exactly once and
// pass the §3.3.2 checker.
func TestCheckpointLazyBeginAppliedOnce(t *testing.T) {
	dir := t.TempDir()
	d, e, _ := newCkptBacked(t, dir)
	rng := rand.New(rand.NewSource(19))
	runMix(t, d, e, rng, 50)
	validNewOrder := func() newOrderInput {
		for {
			if in := d.genNewOrder(rng); !in.invalid {
				return in
			}
		}
	}

	t1, in1 := e.Begin(), validNewOrder()
	appends := e.Log().Appends()
	if _, err := e.Probe(t1, "WAREHOUSE", ik(in1.wID), engine.Conventional()); err != nil {
		t.Fatalf("T1 read: %v", err)
	}
	if got := e.Log().Appends(); got != appends {
		t.Fatalf("T1's read appended %d log records, want none", got-appends)
	}
	t2 := e.Begin()
	if err := d.newOrderConventional(e, t2, validNewOrder(), engine.Conventional()); err != nil {
		t.Fatalf("T2 NewOrder: %v", err)
	}
	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := e.Commit(t2); err != nil {
		t.Fatalf("T2 commit: %v", err)
	}
	if err := d.newOrderConventional(e, t1, in1, engine.Conventional()); err != nil {
		t.Fatalf("T1 NewOrder: %v", err)
	}
	if err := e.Commit(t1); err != nil {
		t.Fatalf("T1 commit: %v", err)
	}

	recs, err := e.Log().Records()
	if err != nil {
		t.Fatal(err)
	}
	first := make(map[wal.TxnID]*wal.Record)
	for _, r := range recs {
		if _, ok := first[r.Txn]; !ok {
			first[r.Txn] = r
		}
	}
	b1, b2 := first[wal.TxnID(t1.ID())], first[wal.TxnID(t2.ID())]
	if b1 == nil || b1.Type != wal.RecBegin || b1.LSN < ck.CutLSN {
		t.Fatalf("T1's first record %+v, want a BEGIN at or above the cut %d", b1, ck.CutLSN)
	}
	if b2 == nil || b2.Type != wal.RecBegin || b2.LSN >= ck.CutLSN {
		t.Fatalf("T2's first record %+v, want a BEGIN below the cut %d", b2, ck.CutLSN)
	}
	if err := d.Check(e); err != nil {
		t.Fatalf("§3.3.2 checker before the crash: %v", err)
	}

	want := orderCounts(t, e)
	e.Log().FlushAll()
	crashDir := snapshotDir(t, dir)
	d2, e2, stats := newCkptBacked(t, crashDir)
	defer e2.Close()
	if stats.CheckpointLSN != ck.CutLSN {
		t.Fatalf("recovery started from cut %d, want %d", stats.CheckpointLSN, ck.CutLSN)
	}
	if got := orderCounts(t, e2); !maps.Equal(got, want) {
		t.Fatalf("row counts after restart = %v, want %v", got, want)
	}
	if err := d2.Check(e2); err != nil {
		t.Fatalf("§3.3.2 checker after restart: %v", err)
	}
}
