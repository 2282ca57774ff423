package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/harness"
	"dora/internal/storage"
	"dora/internal/workload"
)

// figHTAP is the snapshot-read benchmark: the full five-transaction TPC-C mix
// runs on the DORA executors while analytical scanners continuously aggregate
// the whole WAREHOUSE, DISTRICT, and ORDER_LINE tables. Three arms, each on
// its own freshly loaded database:
//
//	baseline  the mix alone — no scanners.
//	snapshot  scanners read one horizon-pinned snapshot per pass: no
//	          lock-table entries, no queue latches, writers never wait.
//	locked    the pre-MVCC alternative: scanners are DORA transactions
//	          holding warehouse-wide shared claims for the whole pass, and
//	          StockLevel routes through its locked flow graph
//	          (Driver.LockedStockLevel).
//
// Scanners fire on a fixed cadence, so every scanner arm performs the same
// analytical work per second and the arms differ only in how their reads
// interact with the writers — the quantity under test. Because wall-clock
// throughput on a shared host drifts on a seconds timescale, the three arms
// are NOT measured back to back: each keeps a live environment and the
// measurement windows are interleaved round-robin across the arms, each arm's
// throughput taken as the median of its windows, so drift hits all arms
// alike.
//
// Every scanner pass checks the §3.3.2 payment-conservation invariant
// W_YTD = Σ D_YTD inside its own read set: a snapshot pass must see it hold
// at its pinned horizon even mid-Payment. The figure always gates on hard
// errors, post-run invariants, zero in-scan consistency failures, and the
// scanner arms making progress; with -htap-tps-gate it additionally requires
// the snapshot arm's OLTP throughput to degrade at most 15% versus baseline
// while the locked arm degrades strictly more (retried a few times — even
// interleaved medians are not immune to a badly timed noise burst).
func figHTAP(o options) error {
	header("HTAP — five-txn TPC-C mix vs continuous analytical scans: snapshot vs locked reads")
	fmt.Println("mode,tps,committed,aborted,scan_passes,scan_aborts,scan_tuples_per_sec,consistency_failures,snapshot_reads,chainlen_mean,prunelag_mean")
	attempts := 1
	if o.htapTPSGate {
		// The first attempt in a fresh process is systematically the worst
		// (heap and scheduler still ramping); later attempts are clean.
		attempts = 4
	}
	var sum htapSummary
	var gateErr error
	for a := 0; a < attempts; a++ {
		var err error
		sum, err = htapOnce(o)
		if err != nil {
			return err
		}
		if gateErr = sum.tpsVerdict(); gateErr == nil || !o.htapTPSGate {
			break
		}
		fmt.Printf("# attempt %d/%d: %v\n", a+1, attempts, gateErr)
	}
	fmt.Printf("# snapshot degradation %.1f%%, locked degradation %.1f%% (baseline %.0f tps)\n",
		sum.SnapshotDegradation*100, sum.LockedDegradation*100, sum.Arms["baseline"].TPS)
	if o.htapJSON != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.htapJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", o.htapJSON)
	}
	if o.htapTPSGate && gateErr != nil {
		return gateErr
	}
	return nil
}

// htapArm summarizes one arm of the benchmark.
type htapArm struct {
	TPS                 float64   `json:"tps"` // median over the interleaved windows
	WindowTPS           []float64 `json:"window_tps"`
	Committed           uint64    `json:"committed"`
	Aborted             uint64    `json:"aborted"`
	ScanPasses          uint64    `json:"scan_passes"`
	ScanAborts          uint64    `json:"scan_aborts"`
	ScanTuplesPerSec    float64   `json:"scan_tuples_per_sec"`
	ConsistencyFailures uint64    `json:"consistency_failures"`
	SnapshotReads       uint64    `json:"snapshot_reads"`
	ChainLenMean        float64   `json:"chainlen_mean"`
	PruneLagMean        float64   `json:"prunelag_mean"`
}

type htapSummary struct {
	Warehouses          int64              `json:"warehouses"`
	Executors           int                `json:"executors"`
	Workers             int                `json:"workers"`
	Scanners            int                `json:"scanners"`
	Window              string             `json:"window"`
	Rounds              int                `json:"rounds"`
	Arms                map[string]htapArm `json:"arms"`
	SnapshotDegradation float64            `json:"snapshot_degradation"`
	LockedDegradation   float64            `json:"locked_degradation"`
}

// tpsVerdict applies the throughput acceptance bar: snapshot scanners cost
// the OLTP mix at most 15%, and the locked alternative costs strictly more.
func (s htapSummary) tpsVerdict() error {
	if s.SnapshotDegradation > 0.15 {
		return fmt.Errorf("htap: snapshot-arm tps degraded %.1f%% (> 15%%)", s.SnapshotDegradation*100)
	}
	if s.LockedDegradation <= s.SnapshotDegradation {
		return fmt.Errorf("htap: locked arm degraded %.1f%%, not strictly worse than snapshot's %.1f%%",
			s.LockedDegradation*100, s.SnapshotDegradation*100)
	}
	return nil
}

// htapArmState is one arm's live environment plus its accumulated telemetry
// across the interleaved measurement windows.
type htapArmState struct {
	mode string
	env  *harness.Bench

	windowTPS []float64
	committed uint64
	aborted   uint64
	elapsed   time.Duration

	snapshotReads      uint64
	chainSum, chainN   uint64
	pruneSum, pruneN   uint64
	passes, scanAborts atomic.Uint64
	tuples             atomic.Uint64
	inconsistent       atomic.Uint64
}

func htapOnce(o options) (htapSummary, error) {
	sum := htapSummary{
		Warehouses: o.warehouses, Executors: o.executors,
		Workers: o.htapWorkers, Scanners: o.htapScanners,
		Window: o.htapWindow.String(), Rounds: o.htapRounds,
		Arms: make(map[string]htapArm, 3),
	}
	var arms []*htapArmState
	defer func() {
		for _, st := range arms {
			st.env.Close()
		}
	}()
	for _, mode := range []string{"baseline", "snapshot", "locked"} {
		d := newTPCC(o)
		d.LockedStockLevel = mode == "locked"
		env, err := harness.Setup(d, o.executors, o.seed)
		if err != nil {
			return sum, fmt.Errorf("htap (%s): %w", mode, err)
		}
		arms = append(arms, &htapArmState{mode: mode, env: env})
	}
	// One unmeasured warm-up window per arm: the first window after a fresh
	// load runs cold (buffer pool, allocator, scheduler).
	for _, st := range arms {
		warm := st.env.Run(harness.Config{System: harness.DORA, Workers: o.htapWorkers,
			Duration: o.htapWindow / 2, Seed: o.seed, SkipCheck: true})
		if warm.Errors > 0 {
			return sum, fmt.Errorf("htap (%s): %d hard errors during warm-up", st.mode, warm.Errors)
		}
	}
	for r := 0; r < o.htapRounds; r++ {
		for _, st := range arms {
			if err := st.runWindow(o); err != nil {
				return sum, fmt.Errorf("htap (%s, round %d): %w", st.mode, r, err)
			}
		}
	}
	for _, st := range arms {
		arm, err := st.finish()
		if err != nil {
			return sum, fmt.Errorf("htap (%s): %w", st.mode, err)
		}
		sum.Arms[st.mode] = arm
		fmt.Printf("%s,%.0f,%d,%d,%d,%d,%.0f,%d,%d,%.2f,%.2f\n",
			st.mode, arm.TPS, arm.Committed, arm.Aborted, arm.ScanPasses, arm.ScanAborts,
			arm.ScanTuplesPerSec, arm.ConsistencyFailures, arm.SnapshotReads,
			arm.ChainLenMean, arm.PruneLagMean)
	}
	// Degradations are computed per round — each scanner window against the
	// baseline window of the same round — and the median taken, so that
	// host-load drift across rounds cancels instead of masquerading as a
	// scanner cost (or hiding one).
	base := sum.Arms["baseline"].WindowTPS
	sum.SnapshotDegradation = pairedDegradation(base, sum.Arms["snapshot"].WindowTPS)
	sum.LockedDegradation = pairedDegradation(base, sum.Arms["locked"].WindowTPS)
	return sum, nil
}

// pairedDegradation returns the median over rounds of 1 - arm[i]/base[i].
func pairedDegradation(base, arm []float64) float64 {
	n := len(base)
	if len(arm) < n {
		n = len(arm)
	}
	ratios := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if base[i] > 0 {
			ratios = append(ratios, 1-arm[i]/base[i])
		}
	}
	return median(ratios)
}

// runWindow measures one window of the arm: scanners (if any) run on their
// cadence for the duration of the OLTP window and stop with it.
func (st *htapArmState) runWindow(o options) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if st.mode != "baseline" {
		for i := 0; i < o.htapScanners; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				next := time.Now().Add(time.Duration(i) * o.htapPause / time.Duration(o.htapScanners))
				for {
					if d := time.Until(next); d > 0 {
						select {
						case <-stop:
							return
						case <-time.After(d):
						}
					}
					select {
					case <-stop:
						return
					default:
					}
					next = next.Add(o.htapPause)
					var n uint64
					var ok bool
					var err error
					if st.mode == "snapshot" {
						n, ok, err = htapSnapshotPass(st.env.DORA)
					} else {
						n, ok, err = htapLockedPass(st.env.DORA, o.warehouses)
					}
					switch {
					case err == nil:
						st.passes.Add(1)
						st.tuples.Add(n)
						if !ok {
							st.inconsistent.Add(1)
						}
					case errors.Is(err, dora.ErrLockWaitTimeout):
						// The locked arm's scanners are legitimate deadlock
						// victims of the claims they exist to demonstrate.
						st.scanAborts.Add(1)
					default:
						st.inconsistent.Add(1)
					}
				}
			}(i)
		}
	}
	res := st.env.Run(harness.Config{System: harness.DORA, Workers: o.htapWorkers,
		Duration: o.htapWindow, Seed: o.seed, SkipCheck: true})
	close(stop)
	wg.Wait()
	if res.Errors > 0 {
		return fmt.Errorf("%d hard errors", res.Errors)
	}
	if res.Committed == 0 {
		return errors.New("mix committed nothing")
	}
	st.windowTPS = append(st.windowTPS, res.Throughput)
	st.committed += res.Committed
	st.aborted += res.Aborted
	st.elapsed += res.Elapsed
	st.snapshotReads += res.SnapshotReads
	st.chainSum += res.ChainLength.Sum
	st.chainN += res.ChainLength.Count
	st.pruneSum += res.PruneLag.Sum
	st.pruneN += res.PruneLag.Count
	return nil
}

// finish applies the arm's correctness gates and folds its telemetry.
func (st *htapArmState) finish() (htapArm, error) {
	if err := st.env.Driver.Check(st.env.Engine); err != nil {
		return htapArm{}, fmt.Errorf("invariants violated: %w", err)
	}
	arm := htapArm{
		TPS: median(st.windowTPS), WindowTPS: st.windowTPS,
		Committed: st.committed, Aborted: st.aborted,
		ScanPasses: st.passes.Load(), ScanAborts: st.scanAborts.Load(),
		ConsistencyFailures: st.inconsistent.Load(),
		SnapshotReads:       st.snapshotReads,
	}
	if st.chainN > 0 {
		arm.ChainLenMean = float64(st.chainSum) / float64(st.chainN)
	}
	if st.pruneN > 0 {
		arm.PruneLagMean = float64(st.pruneSum) / float64(st.pruneN)
	}
	if sec := st.elapsed.Seconds(); sec > 0 {
		arm.ScanTuplesPerSec = float64(st.tuples.Load()) / sec
	}
	if st.mode != "baseline" && arm.ScanPasses == 0 {
		return htapArm{}, errors.New("scanners completed no pass")
	}
	if arm.ConsistencyFailures > 0 {
		return htapArm{}, fmt.Errorf("%d scan passes saw W_YTD != sum(D_YTD) in their own read set", arm.ConsistencyFailures)
	}
	return arm, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// htapSnapshotPass aggregates the three tables over one horizon-pinned
// snapshot: per-warehouse W_YTD and Σ D_YTD (checked against each other) and
// a full ORDER_LINE amount rollup as the heavy analytical portion. It takes
// no lock-table entries and no queue latches.
func htapSnapshotPass(sys *dora.System) (tuples uint64, consistent bool, err error) {
	wYTD := make(map[int64]float64)
	dYTDSum := make(map[int64]float64)
	var olAmount float64
	err = sys.WithSnapshot(func(snap *engine.Snapshot) error {
		if err := snap.ScanTable("WAREHOUSE", func(tu storage.Tuple) bool {
			wYTD[tu[0].Int] = tu[3].Float
			tuples++
			return true
		}); err != nil {
			return err
		}
		if err := snap.ScanTable("DISTRICT", func(tu storage.Tuple) bool {
			dYTDSum[tu[0].Int] += tu[4].Float
			tuples++
			return true
		}); err != nil {
			return err
		}
		return snap.ScanTable("ORDER_LINE", func(tu storage.Tuple) bool {
			olAmount += tu[6].Float
			tuples++
			return true
		})
	})
	if err != nil {
		return 0, false, err
	}
	_ = olAmount
	for w, ytd := range wYTD {
		if !workload.FloatClose(ytd, dYTDSum[w]) {
			return tuples, false, nil
		}
	}
	return tuples, true, nil
}

// htapLockedPass is the same aggregation as a conventional DORA reader: per
// warehouse, one flow whose phase-0 actions hold shared claims on WAREHOUSE,
// DISTRICT, and ORDER_LINE for the duration of the scans — every Payment and
// NewOrder against that warehouse serializes behind the pass.
func htapLockedPass(sys *dora.System, warehouses int64) (tuples uint64, consistent bool, err error) {
	consistent = true
	for w := int64(1); w <= warehouses; w++ {
		var wYTD, dYTDSum, olAmount float64
		var wn, dn, on uint64
		tx := sys.NewTransaction()
		tx.Add(0, &dora.Action{Table: "WAREHOUSE", Key: ikey(w), Mode: dora.Shared,
			Work: func(s *dora.Scope) error {
				return s.ScanPrefix("WAREHOUSE", ikey(w), func(tu storage.Tuple) bool {
					wYTD = tu[3].Float
					wn++
					return true
				})
			}})
		tx.Add(0, &dora.Action{Table: "DISTRICT", Key: ikey(w), Mode: dora.Shared,
			Work: func(s *dora.Scope) error {
				return s.ScanPrefix("DISTRICT", ikey(w), func(tu storage.Tuple) bool {
					dYTDSum += tu[4].Float
					dn++
					return true
				})
			}})
		tx.Add(0, &dora.Action{Table: "ORDER_LINE", Key: ikey(w), Mode: dora.Shared,
			Work: func(s *dora.Scope) error {
				return s.ScanPrefix("ORDER_LINE", ikey(w), func(tu storage.Tuple) bool {
					olAmount += tu[6].Float
					on++
					return true
				})
			}})
		if err := tx.Run(); err != nil {
			return tuples, consistent, err
		}
		_ = olAmount
		tuples += wn + dn + on
		if !workload.FloatClose(wYTD, dYTDSum) {
			consistent = false
		}
	}
	return tuples, consistent, nil
}

func ikey(vals ...int64) storage.Key {
	vs := make([]storage.Value, len(vals))
	for i, v := range vals {
		vs[i] = storage.IntValue(v)
	}
	return storage.EncodeKey(vs...)
}
