package tpcc

import (
	"errors"
	"math/rand"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/storage"
)

// stockLevelInput is the parameter set of one StockLevel transaction (TPC-C
// §2.8): a district and the quantity threshold below which stock counts as
// low.
type stockLevelInput struct {
	wID, dID  int64
	threshold int64
}

func (d *Driver) genStockLevel(rng *rand.Rand) stockLevelInput {
	return stockLevelInput{
		wID:       d.pickWarehouse(rng),
		dID:       1 + rng.Int63n(DistrictsPerWarehouse),
		threshold: 10 + rng.Int63n(11), // uniform in [10, 20]
	}
}

// stockLevelOrders is how many of the district's most recent orders the scan
// examines (§2.8.2.2 prescribes the last 20).
const stockLevelOrders = 20

// recentOrderRange returns the order-id window [lo, hi) covering the last 20
// orders given the district's next order id.
func recentOrderRange(nextOID int64) (lo, hi int64) {
	lo = nextOID - stockLevelOrders
	if lo < 1 {
		lo = 1
	}
	return lo, nextOID
}

// stockLevelConventional counts the distinct items of the district's last 20
// orders whose stock quantity sits below the threshold. It is read-only.
func (d *Driver) stockLevelConventional(e *engine.Engine, txn *engine.Txn, in stockLevelInput, opt engine.AccessOptions) (int64, error) {
	rec, err := e.Probe(txn, "DISTRICT", ik(in.wID, in.dID), opt)
	if err != nil {
		return 0, err
	}
	lo, hi := recentOrderRange(rec[5].Int)
	items := make(map[int64]struct{})
	for o := lo; o < hi; o++ {
		if err := e.ScanPrefix(txn, "ORDER_LINE", ik(in.wID, in.dID, o), opt, func(tu storage.Tuple) bool {
			items[tu[4].Int] = struct{}{}
			return true
		}); err != nil {
			return 0, err
		}
	}
	return countLowStock(items, in, func(pk storage.Key) (storage.Tuple, error) {
		return e.Probe(txn, "STOCK", pk, opt)
	})
}

// countLowStock probes the stock row of every distinct item and counts those
// below the threshold.
func countLowStock(items map[int64]struct{}, in stockLevelInput, probe func(storage.Key) (storage.Tuple, error)) (int64, error) {
	var low int64
	for item := range items {
		rec, err := probe(ik(in.wID, item))
		if err != nil {
			return 0, err
		}
		if rec[2].Int < in.threshold {
			low++
		}
	}
	return low, nil
}

// stockLevelSnapshot runs StockLevel against one horizon-pinned snapshot,
// outside the executors entirely: the ranged ORDER_LINE scan and the STOCK
// probes take no local-lock-table entries and no incoming-queue latches, so
// the transaction never contends with NewOrder/Payment writers and writers
// never wait on it. All reads resolve at the same log horizon, which is
// strictly stronger than the flow-graph variant's isolation (that one holds
// shared claims across phases). This is the default DORA StockLevel path.
func (d *Driver) stockLevelSnapshot(sys *dora.System, in stockLevelInput) (int64, error) {
	var low int64
	err := sys.WithSnapshot(func(snap *engine.Snapshot) error {
		rec, err := snap.Probe("DISTRICT", ik(in.wID, in.dID))
		if err != nil {
			return err
		}
		lo, hi := recentOrderRange(rec[5].Int)
		items := make(map[int64]struct{})
		for o := lo; o < hi; o++ {
			if err := snap.ScanPrefix("ORDER_LINE", ik(in.wID, in.dID, o), func(tu storage.Tuple) bool {
				items[tu[4].Int] = struct{}{}
				return true
			}); err != nil {
				return err
			}
		}
		low, err = countLowStock(items, in, func(pk storage.Key) (storage.Tuple, error) {
			return snap.Probe("STOCK", pk)
		})
		return err
	})
	return low, err
}

// stockLevelFlow builds the StockLevel flow graph: a district probe feeding a
// ranged ORDER_LINE scan feeding a ranged STOCK count, each phase's output
// carried across the RVP through the shared map:
//
//	phase 0: DISTRICT[w]    read d_next_o_id          -> shared "next_o_id"
//	phase 0: lock claims on ORDER_LINE[w], STOCK[w]
//	---- RVP1 ----
//	phase 1: ORDER_LINE[w]  distinct items of the last
//	                        20 orders of the district -> shared "items"
//	---- RVP2 ----
//	phase 2: STOCK[w]       count items below the threshold
//	---- terminal RVP: commit ----
//
// STOCK routes on the warehouse id, so the whole warehouse's stock is one
// dataset and the count phase is a single ranged action on its executor (a
// table spanning several datasets would use a Broadcast action instead). When
// low is non-nil it receives the low-stock count after the flow commits.
//
// The phase-0 warehouse-wide shared claims on ORDER_LINE and STOCK are what
// this path costs: every NewOrder against the warehouse serializes behind
// them. The flow is retained only as the locked A/B arm of the HTAP
// benchmark (Driver.LockedStockLevel); the default DORA dispatch uses
// stockLevelSnapshot, which needs no claims at all.
func (d *Driver) stockLevelFlow(sys *dora.System, in stockLevelInput, low *int64) *dora.Transaction {
	tx := sys.NewTransaction()
	claim(tx, "ORDER_LINE", ik(in.wID), dora.Shared)
	claim(tx, "STOCK", ik(in.wID), dora.Shared)
	tx.Add(0, &dora.Action{
		Table: "DISTRICT", Key: ik(in.wID), Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			rec, err := s.Probe("DISTRICT", ik(in.wID, in.dID))
			if err != nil {
				return err
			}
			s.Put("next_o_id", rec[5].Int)
			return nil
		},
	})
	tx.Add(1, &dora.Action{
		Table: "ORDER_LINE", Key: ik(in.wID), Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			v, ok := s.Get("next_o_id")
			if !ok {
				return errors.New("tpcc: stock-level district phase did not run")
			}
			lo, hi := recentOrderRange(v.(int64))
			items := make(map[int64]struct{})
			for o := lo; o < hi; o++ {
				if err := s.ScanPrefix("ORDER_LINE", ik(in.wID, in.dID, o), func(tu storage.Tuple) bool {
					items[tu[4].Int] = struct{}{}
					return true
				}); err != nil {
					return err
				}
			}
			s.Put("items", items)
			return nil
		},
	})
	tx.Add(2, &dora.Action{
		Table: "STOCK", Key: ik(in.wID), Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			v, ok := s.Get("items")
			if !ok {
				return errors.New("tpcc: stock-level order-line phase did not run")
			}
			n, err := countLowStock(v.(map[int64]struct{}), in, func(pk storage.Key) (storage.Tuple, error) {
				return s.Probe("STOCK", pk)
			})
			if err != nil {
				return err
			}
			if low != nil {
				*low = n
			}
			return nil
		},
	})
	return tx
}

func (d *Driver) stockLevelDORA(sys *dora.System, in stockLevelInput) error {
	if d.LockedStockLevel {
		return d.stockLevelFlow(sys, in, nil).Run()
	}
	_, err := d.stockLevelSnapshot(sys, in)
	return err
}
