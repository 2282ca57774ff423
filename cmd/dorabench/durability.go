package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"dora/internal/engine"
	"dora/internal/harness"
	"dora/internal/wal"
	"dora/internal/workload"
	"dora/internal/workload/tpcc"
)

// durabilityRow summarizes one device/sync-policy configuration of the
// durability benchmark.
type durabilityRow struct {
	Device          string  `json:"device"`
	Sync            string  `json:"sync"`
	TPS             float64 `json:"tps"`
	MeanUs          float64 `json:"mean_us"`
	CommitsPerFlush float64 `json:"commits_per_flush"`
	Flushes         uint64  `json:"flushes"`
	Fsyncs          uint64  `json:"fsyncs"`
	FsyncMeanUs     float64 `json:"fsync_mean_us"`
	DevWriteMeanUs  float64 `json:"devwrite_mean_us"`
}

// figDurability measures the TPC-C five-transaction mix under DORA across
// log-device configurations: the paper's in-memory device versus the
// file-backed segmented log under each sync policy. The point of the figure
// is that group commit amortizes the real device exactly as it amortized the
// modeled one: under SyncOnFlush each coalesced device write pays exactly one
// fsync, and the commit group size stays above one under concurrent load — so
// durability costs latency, not one fsync per transaction.
func figDurability(o options) error {
	header("Durability — TPC-C mix across log devices and sync policies")
	fmt.Println("device,sync,tps,mean_us,commits_per_flush,flushes,fsyncs,fsync_mean_us,devwrite_mean_us")
	configs := []struct {
		device string
		dur    harness.Durability
	}{
		{"mem", harness.Durability{}},
		{"file", harness.Durability{Sync: wal.SyncNone}},
		{"file", harness.Durability{Sync: wal.SyncOnFlush}},
		{"file", harness.Durability{Sync: wal.SyncInterval, SyncEvery: 2 * time.Millisecond}},
	}
	var rows []durabilityRow
	for _, cfg := range configs {
		dur := cfg.dur
		if cfg.device == "file" {
			dir, err := os.MkdirTemp("", "dora-durability-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			dur.LogDir = dir
		}
		env, err := harness.SetupDurable(newTPCC(o), o.executors, o.seed, dur)
		if err != nil {
			return err
		}
		res := env.Run(harness.Config{System: harness.DORA, Workers: 8,
			TxnsPerWorker: o.txns / 8, Seed: o.seed})
		if !res.Valid() {
			env.Close()
			return fmt.Errorf("durability (%s/%s): invariants violated: %w",
				cfg.device, dur.Sync, res.InvariantErr)
		}
		if res.Errors > 0 {
			env.Close()
			return fmt.Errorf("durability (%s/%s): %d hard errors", cfg.device, dur.Sync, res.Errors)
		}
		row := durabilityRow{
			Device:          cfg.device,
			Sync:            dur.Sync.String(),
			TPS:             res.Throughput,
			MeanUs:          float64(res.MeanLatency.Microseconds()),
			CommitsPerFlush: res.CommitsPerFlush,
			Flushes:         res.LogFlushes,
			Fsyncs:          res.LogSyncs,
			FsyncMeanUs:     res.Fsync.Mean(),
			DevWriteMeanUs:  res.DeviceWrite.Mean(),
		}
		rows = append(rows, row)
		fmt.Printf("%s,%s,%.0f,%.0f,%.2f,%d,%d,%.0f,%.0f\n",
			row.Device, row.Sync, row.TPS, row.MeanUs, row.CommitsPerFlush,
			row.Flushes, row.Fsyncs, row.FsyncMeanUs, row.DevWriteMeanUs)
		// The acceptance gate of the refactor: fully durable commits still
		// coalesce (the flusher groups committers), and durability costs one
		// fsync per device write — never one per transaction.
		if cfg.device == "file" && dur.Sync == wal.SyncOnFlush {
			if row.Fsyncs != row.Flushes {
				env.Close()
				return fmt.Errorf("durability: SyncOnFlush issued %d fsyncs over %d flushes, want exactly one per device write",
					row.Fsyncs, row.Flushes)
			}
			if row.CommitsPerFlush <= 1 {
				env.Close()
				return fmt.Errorf("durability: SyncOnFlush commits/flush = %.2f, want > 1 (group commit must survive the real device)",
					row.CommitsPerFlush)
			}
		}
		env.Close()
	}
	fmt.Println("# note: mem/none is the paper's in-memory-file-system setup; file/onflush is")
	fmt.Println("# fully durable (one fsync per coalesced flush); file/interval bounds loss to")
	fmt.Println("# the sync cadence.")
	if o.durabilityJSON != "" {
		out := struct {
			Txns    int             `json:"txns"`
			Workers int             `json:"workers"`
			Rows    []durabilityRow `json:"rows"`
		}{o.txns, 8, rows}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.durabilityJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", o.durabilityJSON)
	}
	return nil
}

// crashDriver builds the small TPC-C instance both sides of the crash-restart
// experiment use (the checker must run against the same schema the child
// loaded).
func crashDriver(o options) *tpcc.Driver {
	d := tpcc.New(2)
	d.CustomersPerDistrict = 30
	d.Items = 100
	return d
}

// runCrashChild is the child half of the crash-restart experiment: it loads a
// TPC-C database into a file-backed engine under -logdir with SyncOnFlush
// durability, then runs the five-transaction mix forever, reporting cumulative
// commits and each new checkpoint's cut LSN on stdout, until the parent
// SIGKILLs it mid-run.
func runCrashChild(o options) error {
	if o.logdir == "" {
		return fmt.Errorf("-crash-child requires -logdir")
	}
	dur := harness.Durability{LogDir: o.logdir, Sync: wal.SyncOnFlush}
	if o.crashCheckpoint > 0 {
		// Checkpointing arm: a background fuzzy checkpointer runs through the
		// whole lifetime (including the load), and small segments give its
		// truncation whole files to reclaim.
		dur.CheckpointEvery = o.crashCheckpoint
		dur.SegmentSize = 256 << 10
	}
	env, err := harness.SetupDurable(crashDriver(o), o.executors, o.seed, dur)
	if err != nil {
		return err
	}
	fmt.Println("READY")
	var total uint64
	var cut wal.LSN
	for i := 0; ; i++ {
		sys := harness.DORA
		if i%2 == 1 {
			sys = harness.Baseline
		}
		res := env.Run(harness.Config{System: sys, Workers: 4,
			Duration: 100 * time.Millisecond, Seed: o.seed + int64(i), SkipCheck: true})
		if res.Errors > 0 {
			return fmt.Errorf("window %d: %d hard errors", i, res.Errors)
		}
		total += res.Committed
		fmt.Printf("COMMITTED %d\n", total)
		if c := env.Engine.LastCheckpoint().CutLSN; c != cut {
			cut = c
			fmt.Printf("CHECKPOINT %d\n", cut)
		}
	}
}

// figCrash is the parent half: it spawns a child process running the durable
// TPC-C mix, SIGKILLs it mid-run once enough commits are reported (and, when
// the child checkpoints, once a checkpoint has landed), reopens the
// same log directory via engine.Open (true process-restart recovery: catalog,
// data, and indexes rebuilt from the segmented WAL alone), and gates on the
// §3.3.2 consistency checker — before and after fresh post-restart traffic.
func figCrash(o options) error {
	header("Crash-restart — SIGKILL a durable TPC-C run, reopen the log dir, check invariants")
	dir, err := os.MkdirTemp("", "dora-crash-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe,
		"-crash-child",
		"-logdir", dir,
		"-executors", strconv.Itoa(o.executors),
		"-seed", strconv.FormatInt(o.seed, 10),
		"-crash-checkpoint", o.crashCheckpoint.String(),
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}

	// Track the child's progress; kill it mid-run once it has committed
	// enough that recovery has real work to replay and, in the checkpointing
	// arm, once an image exists for recovery to start from.
	var lastReported, lastCut uint64
	progress := make(chan string, 64)
	scanErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case progress <- sc.Text():
			default: // parent stopped receiving after the kill; drop
			}
		}
		scanErr <- sc.Err()
	}()
	deadline := time.After(o.crashTimeout)
	killed := false
	for !killed {
		select {
		case line := <-progress:
			fmt.Sscanf(line, "COMMITTED %d", &lastReported) //nolint:errcheck // other lines leave it unchanged
			fmt.Sscanf(line, "CHECKPOINT %d", &lastCut)     //nolint:errcheck
			if lastReported >= o.crashCommits && (o.crashCheckpoint == 0 || lastCut > 0) {
				if err := cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
					return fmt.Errorf("killing child: %w", err)
				}
				killed = true
			}
		case err := <-scanErr:
			return fmt.Errorf("child exited before reaching %d commits (last %d, checkpoint cut %d): %v",
				o.crashCommits, lastReported, lastCut, err)
		case <-deadline:
			cmd.Process.Kill()
			return fmt.Errorf("child did not reach %d commits within %s (last %d, checkpoint cut %d)",
				o.crashCommits, o.crashTimeout, lastReported, lastCut)
		}
	}
	cmd.Wait() // reap; the kill makes the exit status non-zero by design
	fmt.Printf("child SIGKILLed after reporting %d commits (checkpoint cut %d)\n", lastReported, lastCut)

	// True process-restart recovery: nothing survives from the child but the
	// log directory (segments plus any checkpoint images).
	e, stats, err := engine.Open(dir, engine.Config{
		BufferPoolFrames: 1 << 15, LogSync: wal.SyncOnFlush})
	if err != nil {
		return fmt.Errorf("reopening log dir: %w", err)
	}
	defer e.Close()
	fmt.Printf("recovery: analyzed=%d redone=%d undone=%d winners=%d losers=%d checkpoint_lsn=%d checkpoint_records=%d\n",
		stats.Analyzed, stats.Redone, stats.Undone, stats.Winners, stats.Losers,
		stats.CheckpointLSN, stats.CheckpointRecords)
	if o.crashCheckpoint > 0 {
		// With a checkpoint cadence far below the run length, recovery must
		// have started from an image rather than replaying the child's whole
		// history from LSN 1.
		if stats.CheckpointLSN == 0 {
			return fmt.Errorf("child checkpointed every %s but recovery replayed from scratch: %+v",
				o.crashCheckpoint, stats)
		}
	} else if stats.Winners == 0 || stats.Redone == 0 {
		return fmt.Errorf("recovery replayed nothing: %+v", stats)
	}
	d := crashDriver(o)
	if err := d.Check(e); err != nil {
		return fmt.Errorf("invariants violated after crash-restart recovery: %w", err)
	}
	fmt.Println("invariants: ok after recovery")

	// The recovered engine keeps serving the full mix and stays consistent.
	rng := rand.New(rand.NewSource(o.seed + 99))
	for i := 0; i < 200; i++ {
		kind := d.Mix().Pick(rng)
		if err := d.RunBaseline(e, kind, rng, 0); err != nil && !errors.Is(err, workload.ErrAborted) {
			return fmt.Errorf("post-restart %s: %w", kind, err)
		}
	}
	if err := d.Check(e); err != nil {
		return fmt.Errorf("invariants violated after post-restart traffic: %w", err)
	}
	fmt.Println("invariants: ok after post-restart traffic")
	return figCrashSweep(o)
}

// crashSweepRow is one (arm, batch) measurement of the recovery-time sweep.
type crashSweepRow struct {
	Checkpoint  bool    `json:"checkpoint"`
	Batch       int     `json:"batch"`
	Commits     int     `json:"commits"`
	LogBytes    int64   `json:"log_bytes"`
	Segments    int     `json:"segments"`
	Analyzed    int     `json:"analyzed"`
	Redone      int     `json:"redone"`
	CkptRecords int     `json:"checkpoint_records"`
	RecoveryMs  float64 `json:"recovery_ms"`
}

// figCrashSweep measures recovery work versus run length, with and without
// fuzzy checkpointing: each arm runs batches of TPC-C traffic over one
// long-lived file-backed engine, crash-snapshots the log directory after each
// batch, and times engine.Open on the snapshot (gated on the §3.3.2 checker).
// Without checkpoints both the log and the records recovery must analyze grow
// linearly with the run; with a checkpoint per batch the analyzed tail and
// the segment count stay roughly flat — recovery time is bounded by the work
// done since the last checkpoint, not by the length of the run. The gates are
// on the deterministic counters (analyzed records, retained segments), not on
// wall-clock, so they hold on noisy CI hosts; the measured times land in
// -crash-json for plotting.
func figCrashSweep(o options) error {
	header("Crash-restart sweep — recovery work vs run length, with and without checkpoints")
	fmt.Println("checkpoint,batch,commits,log_bytes,segments,analyzed,redone,checkpoint_records,recovery_ms")
	const batches = 4
	var rows []crashSweepRow
	final := make(map[bool]crashSweepRow)
	for _, withCkpt := range []bool{false, true} {
		dir, err := os.MkdirTemp("", "dora-crash-sweep-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg := engine.Config{BufferPoolFrames: 1 << 15, LogSync: wal.SyncOnFlush,
			LogSegmentSize: 128 << 10}
		d := tpcc.New(1)
		d.CustomersPerDistrict = 20
		d.Items = 50
		e, _, err := engine.Open(dir, cfg)
		if err != nil {
			return err
		}
		if err := d.CreateTables(e); err != nil {
			e.Close()
			return err
		}
		if err := d.Load(e, rand.New(rand.NewSource(o.seed))); err != nil {
			e.Close()
			return err
		}
		rng := rand.New(rand.NewSource(o.seed + 17))
		commits := 0
		for batch := 1; batch <= batches; batch++ {
			for i := 0; i < 150; i++ {
				kind := d.Mix().Pick(rng)
				err := d.RunBaseline(e, kind, rng, 0)
				if err != nil && !errors.Is(err, workload.ErrAborted) {
					e.Close()
					return fmt.Errorf("sweep traffic %s: %w", kind, err)
				}
				if err == nil {
					commits++
				}
			}
			if withCkpt {
				if _, err := e.Checkpoint(); err != nil {
					e.Close()
					return fmt.Errorf("sweep checkpoint: %w", err)
				}
			}
			e.Log().FlushAll()

			// Crash now: recover a snapshot of the directory and time it.
			snap, err := snapshotLogDir(dir)
			if err != nil {
				e.Close()
				return err
			}
			logBytes, segments := dirLogSize(snap)
			start := time.Now()
			re, stats, err := engine.Open(snap, cfg)
			elapsed := time.Since(start)
			if err != nil {
				e.Close()
				return fmt.Errorf("sweep recovery (checkpoint=%v batch=%d): %w", withCkpt, batch, err)
			}
			if err := d.Check(re); err != nil {
				re.Close()
				e.Close()
				return fmt.Errorf("sweep invariants (checkpoint=%v batch=%d): %w", withCkpt, batch, err)
			}
			re.Close()
			os.RemoveAll(snap)
			row := crashSweepRow{
				Checkpoint: withCkpt, Batch: batch, Commits: commits,
				LogBytes: logBytes, Segments: segments,
				Analyzed: stats.Analyzed, Redone: stats.Redone,
				CkptRecords: stats.CheckpointRecords,
				RecoveryMs:  float64(elapsed.Microseconds()) / 1000,
			}
			rows = append(rows, row)
			final[withCkpt] = row
			fmt.Printf("%v,%d,%d,%d,%d,%d,%d,%d,%.1f\n",
				row.Checkpoint, row.Batch, row.Commits, row.LogBytes, row.Segments,
				row.Analyzed, row.Redone, row.CkptRecords, row.RecoveryMs)
		}
		e.Close()
	}

	// Deterministic gates: by the final batch, checkpointing must have cut
	// the analyzed tail well below the full-history replay and reclaimed log
	// segments the no-checkpoint arm still drags around.
	off, on := final[false], final[true]
	if on.Analyzed*2 >= off.Analyzed {
		return fmt.Errorf("checkpointing did not bound recovery: analyzed %d with vs %d without",
			on.Analyzed, off.Analyzed)
	}
	if on.Segments >= off.Segments {
		return fmt.Errorf("checkpoint truncation reclaimed nothing: %d segments with vs %d without",
			on.Segments, off.Segments)
	}
	fmt.Printf("# final batch: analyzed %d (with checkpoints) vs %d (without); segments %d vs %d\n",
		on.Analyzed, off.Analyzed, on.Segments, off.Segments)
	if o.crashJSON != "" {
		out := struct {
			Batches int             `json:"batches"`
			Rows    []crashSweepRow `json:"rows"`
		}{batches, rows}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.crashJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", o.crashJSON)
	}
	return nil
}

// snapshotLogDir copies the segments, checkpoint images, and .tmp debris of a
// live log directory into a fresh temp directory — the on-disk state a crash
// at this instant would leave (the live engine keeps its flock).
func snapshotLogDir(src string) (string, error) {
	dst, err := os.MkdirTemp("", "dora-crash-snap-")
	if err != nil {
		return "", err
	}
	for _, pat := range []string{"wal-*.seg", "ckpt-*.img", "*.tmp"} {
		matches, err := filepath.Glob(filepath.Join(src, pat))
		if err != nil {
			return "", err
		}
		for _, f := range matches {
			data, err := os.ReadFile(f)
			if err != nil {
				return "", err
			}
			if err := os.WriteFile(filepath.Join(dst, filepath.Base(f)), data, 0o644); err != nil {
				return "", err
			}
		}
	}
	return dst, nil
}

// dirLogSize totals the WAL segment bytes and counts segments in a directory.
func dirLogSize(dir string) (int64, int) {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	var total int64
	for _, s := range segs {
		if st, err := os.Stat(s); err == nil {
			total += st.Size()
		}
	}
	return total, len(segs)
}
