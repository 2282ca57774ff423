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

	counts := func(e *engine.Engine) map[string]int {
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
	want := counts(e)
	e.Log().FlushAll()
	crashDir := snapshotDir(t, dir)

	d2, e2, stats := newCkptBacked(t, crashDir)
	defer e2.Close()
	if stats.CheckpointLSN != ck.CutLSN {
		t.Fatalf("recovery started from cut %d, want the in-commit checkpoint's %d", stats.CheckpointLSN, ck.CutLSN)
	}
	if got := counts(e2); !maps.Equal(got, want) {
		t.Fatalf("row counts after restart = %v, want %v", got, want)
	}
	if err := d2.Check(e2); err != nil {
		t.Fatalf("§3.3.2 checker after restart: %v", err)
	}
}
