package wal

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dora/internal/storage"
)

// Appends must assign gap-free LSNs under heavy concurrency: the log is a
// byte stream, so sorting the assigned LSNs must reproduce it exactly — every
// record starts where the previous one ended, with no hole and no overlap,
// and the encoded stream must decode back to every record.
func TestConcurrentAppendLSNsGapFree(t *testing.T) {
	m := NewManager()
	defer m.Close()

	const workers = 8
	const perWorker = 400
	results := make([][]appended, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Varying payload sizes make each record's LSN depend on
				// the exact sizes of every record appended before it.
				r := &Record{
					Txn:   TxnID(w*perWorker + i + 1),
					Type:  RecUpdate,
					RID:   storage.RID{Page: storage.PageID(w), Slot: uint16(i)},
					After: []byte(fmt.Sprintf("w%d-i%d-%s", w, i, "xxxxxxxxxxxxxxxx"[:i%16])),
				}
				if !appendOne(t, m, r, &results[w]) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkGapFree(t, m, results)
}

// A record far larger than the buffered tail's capacity must still land
// contiguously while small appends race it: the buffer grows under the mutex,
// so neither the large record nor any small one around it is torn, shifted,
// or assigned an overlapping LSN.
func TestConcurrentAppendLargeRecord(t *testing.T) {
	m := NewManager()
	defer m.Close()

	const workers = 8
	const perWorker = 200
	const large = 3
	results := make([][]appended, workers+1)
	payload := func(i int) []byte {
		b := make([]byte, 256<<10)
		for j := range b {
			b[j] = byte(i + j)
		}
		return b
	}
	var wg sync.WaitGroup
	for w := 0; w <= workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w == workers {
				for i := 0; i < large; i++ {
					r := &Record{Txn: TxnID(1 << 20), Type: RecUpdate, After: payload(i)}
					if !appendOne(t, m, r, &results[w]) {
						return
					}
				}
				return
			}
			for i := 0; i < perWorker; i++ {
				r := &Record{Txn: TxnID(w*perWorker + i + 1), Type: RecUpdate, After: []byte{byte(w), byte(i)}}
				if !appendOne(t, m, r, &results[w]) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	recs := checkGapFree(t, m, results)
	seen := 0
	for _, r := range recs {
		if r.Txn != 1<<20 {
			continue
		}
		if !reflect.DeepEqual(r.After, payload(seen)) {
			t.Fatalf("large record %d at LSN %d decoded with a corrupted payload", seen, r.LSN)
		}
		seen++
	}
	if seen != large {
		t.Fatalf("decoded %d large records, want %d", seen, large)
	}
}

// appended is one record's assigned LSN and encoded size.
type appended struct {
	lsn  LSN
	size int
}

// appendOne appends r and records its LSN and size in out, reporting
// success.
func appendOne(t *testing.T, m *Manager, r *Record, out *[]appended) bool {
	size := r.encodedSize()
	lsn, err := m.Append(r)
	if err != nil {
		t.Errorf("Append(txn %d): %v", r.Txn, err)
		return false
	}
	*out = append(*out, appended{lsn: lsn, size: size})
	return true
}

// checkGapFree asserts that the per-goroutine append results tile the log
// from LSN 1 with no gap or overlap, that the stream decodes to exactly those
// records in LSN order, and returns the decoded records.
func checkGapFree(t *testing.T, m *Manager, results [][]appended) []*Record {
	t.Helper()
	var all []appended
	for _, rs := range results {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lsn < all[j].lsn })
	expect := LSN(1)
	for i, e := range all {
		if e.lsn != expect {
			t.Fatalf("record %d at LSN %d, want %d (gap or overlap)", i, e.lsn, expect)
		}
		expect += LSN(e.size)
	}
	if got := m.CurrentLSN(); got != expect {
		t.Fatalf("CurrentLSN = %d, want %d", got, expect)
	}
	if got := m.Appends(); got != uint64(len(all)) {
		t.Fatalf("Appends = %d, want %d", got, len(all))
	}
	recs, err := m.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(recs) != len(all) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(all))
	}
	for i, r := range recs {
		if r.LSN != all[i].lsn {
			t.Fatalf("decoded record %d has LSN %d, want %d", i, r.LSN, all[i].lsn)
		}
	}
	return recs
}

// appendTxnRecords writes one transaction's deterministic record sequence,
// threading the PrevLSN chain the way the engine does. Committed transactions
// get COMMIT+END records; losers just stop.
func appendTxnRecords(t *testing.T, m *Manager, txn int, ops int, commit bool) {
	t.Helper()
	id := TxnID(txn)
	last, err := m.Append(&Record{Txn: id, Type: RecBegin})
	if err != nil {
		t.Errorf("txn %d BEGIN: %v", txn, err)
		return
	}
	for i := 0; i < ops; i++ {
		r := &Record{
			Txn:     id,
			PrevLSN: last,
			TableID: 1,
			RID:     storage.RID{Page: storage.PageID(txn), Slot: uint16(i)},
		}
		if i%3 == 2 {
			r.Type = RecUpdate
			r.Before = []byte(fmt.Sprintf("t%d-s%d-v0", txn, i-1))
			r.After = []byte(fmt.Sprintf("t%d-s%d-v1", txn, i))
		} else {
			r.Type = RecInsert
			r.After = []byte(fmt.Sprintf("t%d-s%d-v0", txn, i))
		}
		if last, err = m.Append(r); err != nil {
			t.Errorf("txn %d op %d: %v", txn, i, err)
			return
		}
	}
	if commit {
		if last, err = m.Append(&Record{Txn: id, PrevLSN: last, Type: RecCommit}); err != nil {
			t.Errorf("txn %d COMMIT: %v", txn, err)
			return
		}
		if _, err = m.Append(&Record{Txn: id, PrevLSN: last, Type: RecEnd}); err != nil {
			t.Errorf("txn %d END: %v", txn, err)
		}
	}
}

// A log written by concurrent appenders must recover to the same image as the
// same transactions appended serially: commit/abort outcomes and per-key
// values are interleaving-independent (each transaction touches its own
// keys), so any divergence means the concurrent append path corrupted chains
// or record contents.
func TestConcurrentLogRecoversSameImageAsSerial(t *testing.T) {
	const txns = 12
	const ops = 15
	committed := func(txn int) bool { return txn%2 == 0 }

	recoverImage := func(m *Manager) (map[string][]byte, RecoveryStats) {
		t.Helper()
		m.FlushAll()
		a := newMemApplier()
		stats, err := Recover(m, a)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		return a.data, stats
	}

	serial := NewManager()
	defer serial.Close()
	for txn := 1; txn <= txns; txn++ {
		appendTxnRecords(t, serial, txn, ops, committed(txn))
	}
	wantData, wantStats := recoverImage(serial)

	concurrent := NewManager()
	defer concurrent.Close()
	var wg sync.WaitGroup
	for txn := 1; txn <= txns; txn++ {
		wg.Add(1)
		go func(txn int) {
			defer wg.Done()
			appendTxnRecords(t, concurrent, txn, ops, committed(txn))
		}(txn)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	gotData, gotStats := recoverImage(concurrent)

	if wantStats.Winners != gotStats.Winners || wantStats.Losers != gotStats.Losers {
		t.Fatalf("winners/losers = %d/%d concurrent vs %d/%d serial",
			gotStats.Winners, gotStats.Losers, wantStats.Winners, wantStats.Losers)
	}
	if !reflect.DeepEqual(wantData, gotData) {
		t.Fatalf("recovered images differ:\nconcurrent: %d keys\nserial: %d keys",
			len(gotData), len(wantData))
	}
}

// Interleaved BEGIN/END traffic must keep the checkpoint active set exact: at
// any cut, every registered transaction is live (no END below the cut), and
// after all transactions end the set is empty. This races Append's
// registration (held across the LSN reservation) against CheckpointCut.
func TestConcurrentCheckpointCutSeesConsistentActiveSet(t *testing.T) {
	m := NewManager()
	defer m.Close()

	const workers = 6
	const perWorker = 200
	stop := make(chan struct{})
	var cuts sync.WaitGroup
	cuts.Add(1)
	go func() {
		defer cuts.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cut, low, active := m.CheckpointCut()
			if low > cut {
				t.Errorf("low %d above cut %d", low, cut)
				return
			}
			for txn, first := range active {
				if first > cut {
					t.Errorf("active txn %d first LSN %d above cut %d", txn, first, cut)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := TxnID(w*perWorker + i + 1)
				last, err := m.Append(&Record{Txn: id, Type: RecBegin})
				if err != nil {
					t.Errorf("BEGIN: %v", err)
					return
				}
				if _, err := m.Append(&Record{Txn: id, PrevLSN: last, Type: RecEnd}); err != nil {
					t.Errorf("END: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	cuts.Wait()
	if t.Failed() {
		return
	}
	_, low, active := m.CheckpointCut()
	if len(active) != 0 {
		t.Fatalf("active set after all ENDs: %v, want empty", active)
	}
	if cut := m.CurrentLSN(); low != cut {
		t.Fatalf("idle horizon: low=%d cut=%d, want equal", low, cut)
	}
}
