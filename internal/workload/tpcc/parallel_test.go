package tpcc

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/workload"
)

// newLoadedWith builds a small TPC-C database and a DORA system with the
// given runtime configuration (serial vs parallel secondaries).
func newLoadedWith(t testing.TB, cfg dora.Config) (*Driver, *engine.Engine, *dora.System) {
	t.Helper()
	d := New(2)
	d.CustomersPerDistrict = 30
	d.Items = 100
	e := engine.New(engine.Config{BufferPoolFrames: 4096})
	// Cleanups run last-in first-out, so the DORA system stops first.
	t.Cleanup(func() { e.Close() })
	if err := d.CreateTables(e); err != nil {
		t.Fatalf("CreateTables: %v", err)
	}
	if err := d.Load(e, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if cfg.TxnTimeout == 0 {
		cfg.TxnTimeout = 10 * time.Second
	}
	sys := dora.NewSystem(e, cfg)
	if err := d.BindDORA(sys, 2); err != nil {
		t.Fatalf("BindDORA: %v", err)
	}
	t.Cleanup(sys.Stop)
	return d, e, sys
}

// customerState snapshots the mutable Payment fields of every customer.
func customerState(t *testing.T, e *engine.Engine) map[string][3]float64 {
	t.Helper()
	txn := e.Begin()
	defer e.Commit(txn)
	out := make(map[string][3]float64)
	if err := e.ScanTable(txn, "CUSTOMER", engine.Conventional(), func(tu storage.Tuple) bool {
		k := tu[0].String() + "/" + tu[1].String() + "/" + tu[2].String()
		out[k] = [3]float64{tu[5].Float, tu[6].Float, float64(tu[7].Int)}
		return true
	}); err != nil {
		t.Fatalf("scan CUSTOMER: %v", err)
	}
	return out
}

// TestPaymentByNameModeEquivalence runs the same deterministic by-name
// Payment sequence three ways — conventionally, as DORA flows with parallel
// secondaries, and as DORA flows forced serial — and demands identical final
// customer state: the resolve-then-forward path must select and update
// exactly the customers the spec's by-name rule picks.
func TestPaymentByNameModeEquivalence(t *testing.T) {
	const txns = 120
	var states []map[string][3]float64
	for _, mode := range []struct {
		name   string
		dora   bool
		serial bool
	}{
		{"Conventional", false, false},
		{"DORA-Parallel", true, false},
		{"DORA-Serial", true, true},
	} {
		d, e, sys := newLoadedWith(t, dora.Config{SerialSecondaries: mode.serial})
		d.ByNamePercent = 100
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < txns; i++ {
			var err error
			if mode.dora {
				err = d.RunDORA(sys, Payment, rng, 0)
			} else {
				err = d.RunBaseline(e, Payment, rng, 0)
			}
			if err != nil && !errors.Is(err, workload.ErrAborted) {
				t.Fatalf("%s payment %d: %v", mode.name, i, err)
			}
		}
		if err := d.Check(e); err != nil {
			t.Fatalf("%s invariants: %v", mode.name, err)
		}
		states = append(states, customerState(t, e))
	}
	for i := 1; i < len(states); i++ {
		if len(states[i]) != len(states[0]) {
			t.Fatalf("mode %d has %d customers, mode 0 has %d", i, len(states[i]), len(states[0]))
		}
		for k, v := range states[0] {
			if states[i][k] != v {
				t.Fatalf("customer %s diverged: mode 0 %v, mode %d %v", k, v, i, states[i][k])
			}
		}
	}
}

// TestOrderStatusByNameModeEquivalence: the by-name OrderStatus flow must
// succeed and resolve the same customers under parallel and serial
// secondaries (it is read-only, so equivalence is absence of errors plus an
// unchanged database).
func TestOrderStatusByNameModeEquivalence(t *testing.T) {
	const txns = 80
	for _, serial := range []bool{false, true} {
		name := "Parallel"
		if serial {
			name = "Serial"
		}
		t.Run(name, func(t *testing.T) {
			d, e, sys := newLoadedWith(t, dora.Config{SerialSecondaries: serial})
			d.ByNamePercent = 100
			before := customerState(t, e)
			rng := rand.New(rand.NewSource(7))
			ran := 0
			for i := 0; i < txns; i++ {
				err := d.RunDORA(sys, OrderStatus, rng, 0)
				if err == nil {
					ran++
				} else if !errors.Is(err, workload.ErrAborted) {
					t.Fatalf("orderStatus %d: %v", i, err)
				}
			}
			if ran == 0 {
				t.Fatalf("no OrderStatus committed")
			}
			after := customerState(t, e)
			for k, v := range before {
				if after[k] != v {
					t.Fatalf("read-only OrderStatus mutated customer %s: %v -> %v", k, v, after[k])
				}
			}
		})
	}
}

// TestDeliveryParallelProbesEquivalence seeds undelivered orders and runs the
// same Delivery sequence under parallel and serial secondaries; both must
// deliver the same orders and leave states that pass the invariant checker.
func TestDeliveryParallelProbesEquivalence(t *testing.T) {
	counts := make([]int, 2)
	for i, serial := range []bool{false, true} {
		d, e, sys := newLoadedWith(t, dora.Config{SerialSecondaries: serial})
		rng := rand.New(rand.NewSource(31))
		for j := 0; j < 40; j++ {
			kind := NewOrder
			if j%4 == 3 {
				kind = Delivery
			}
			if err := d.RunDORA(sys, kind, rng, 0); err != nil && !errors.Is(err, workload.ErrAborted) {
				t.Fatalf("serial=%v txn %d (%s): %v", serial, j, kind, err)
			}
		}
		if err := d.Check(e); err != nil {
			t.Fatalf("serial=%v invariants: %v", serial, err)
		}
		// Count the remaining undelivered orders; the deterministic sequence
		// must leave the same number in both modes.
		txn := e.Begin()
		remaining := 0
		if err := e.ScanTable(txn, "NEW_ORDER", engine.Conventional(), func(storage.Tuple) bool {
			remaining++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		e.Commit(txn)
		counts[i] = remaining
	}
	if counts[0] != counts[1] {
		t.Fatalf("undelivered orders diverged: parallel %d, serial %d", counts[0], counts[1])
	}
}

// TestSecondaryHeavyMixUsesResolvers sanity-checks the wiring: a by-name
// heavy mix on the default configuration actually routes secondary work to
// the resolver pool and forwards primary actions.
func TestSecondaryHeavyMixUsesResolvers(t *testing.T) {
	d, _, sys := newLoadedWith(t, dora.Config{})
	d.ByNamePercent = 100
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		kind := Payment
		if i%3 == 1 {
			kind = OrderStatus
		} else if i%3 == 2 {
			kind = Delivery
		}
		if err := d.RunDORA(sys, kind, rng, 0); err != nil && !errors.Is(err, workload.ErrAborted) {
			t.Fatalf("txn %d (%s): %v", i, kind, err)
		}
	}
	st := sys.Stats()
	if st.SecondariesParallel == 0 {
		t.Fatalf("no secondary actions reached the resolver pool: %+v", st)
	}
	if st.ActionsForwarded == 0 {
		t.Fatalf("no actions forwarded: %+v", st)
	}
	if st.SecondariesInline != 0 {
		t.Fatalf("parallel mode ran %d secondaries inline", st.SecondariesInline)
	}
}
