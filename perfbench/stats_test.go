package main

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/lockmgr"
	"dora/internal/wal"
	"dora/internal/workload"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want outcome
	}{
		{"commit", nil, committed},
		{"input abort, missing record", fmt.Errorf("%w: %w", workload.ErrAborted, engine.ErrNotFound), inputAbort},
		{"input abort, duplicate key", fmt.Errorf("%w: %w", workload.ErrAborted, engine.ErrDuplicateKey), inputAbort},
		{"bare ErrAborted is no input outcome", workload.ErrAborted, failed},
		{"DORA lock-wait victim", fmt.Errorf("%w: %w", workload.ErrAborted, dora.ErrLockWaitTimeout), failed},
		{"centralized deadlock victim", fmt.Errorf("%w: %w", workload.ErrAborted, lockmgr.ErrDeadlock), failed},
		{"load shed", dora.ErrOverloaded, failed},
		{"deadline", dora.ErrDeadlineExceeded, failed},
		{"device failure", wal.ErrDeviceFailed, failed},
		{"Failed engine", engine.ErrEngineFailed, failed},
		{"call after the engine failed", engine.ErrTxnDone, failed},
		{"unclassified", errors.New("boom"), failed},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("%s: classify(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		name       string
		samples    []int64
		wantV      int64
		wantBeyond int
		wantOK     bool
	}{
		{"1000 distinct: 10 beyond p99", seq(1000), 990, 10, true},
		{"999 distinct: 9 beyond p99", seq(999), 990, 9, false},
		{"2000 distinct", seq(2000), 1980, 20, true},
		{"ties at the percentile are not beyond it", append(seq(980), repeat(981, 20)...), 981, 0, false},
		{"no samples", nil, 0, 0, false},
	}
	for _, c := range cases {
		v, beyond, ok := tail(c.samples, 0.99)
		if v != c.wantV || beyond != c.wantBeyond || ok != c.wantOK {
			t.Errorf("%s: tail = (%d, %d, %v), want (%d, %d, %v)", c.name, v, beyond, ok, c.wantV, c.wantBeyond, c.wantOK)
		}
	}
}

func repeat(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestQuantile(t *testing.T) {
	s := seq(10)
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 5}, {0.99, 10}, {0.1, 1}, {0, 1}, {1, 10}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	m := ratio("wal.appends_per_txn", "count", 408, "appends", 100, "attempted", 1)
	if m.Value != 4.08 || m.Note != "appends=408 / attempted=100" {
		t.Errorf("ratio = %+v", m)
	}
	if m := ratio("lockmgr.waits_per_ktxn", "count", 3, "waits", 1500, "attempted", 1000); m.Value != 2 {
		t.Errorf("per-1000 ratio = %v, want 2", m.Value)
	}
	if m := ratio("x", "count", 5, "n", 0, "attempted", 1); m.Value != 0 || m.Note != "n=5 / attempted=0" {
		t.Errorf("empty base = %+v, want 0 with the base named", m)
	}
	if m := frac("buffer.hit_ratio", 3, "hits", 4, "fetches"); m.Value != 0.75 || m.Unit != "frac" {
		t.Errorf("frac = %+v", m)
	}
}

func TestWindowCounts(t *testing.T) {
	w := &window{committed: 90, inputAborts: 8, failed: 2}
	if got := w.attempted(); got != 100 {
		t.Errorf("attempted = %d, want 100", got)
	}
}

func TestSpecs(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.name] {
			t.Errorf("duplicate workload %q", s.name)
		}
		seen[s.name] = true
		if want := s.driver + map[bool]string{true: "-sync", false: ""}[s.synced] + "-" + s.arm(); s.name != want {
			t.Errorf("workload %q should be named %q", s.name, want)
		}
	}
}

func TestSubWindows(t *testing.T) {
	sec := int64(time.Second)
	w := &window{kinds: []string{"fast", "slow"}, weights: []int{3, 1}, subLen: time.Second,
		cpuMarks: []time.Duration{0, 300 * time.Millisecond, 500 * time.Millisecond}}
	for i := int64(0); i < 1000; i++ {
		// 1000 calls ending in the first second; one in the second.
		w.samples = append(w.samples, sample{start: i * sec / 2000, dur: i + 1, kind: uint8(i % 2), out: committed})
	}
	w.samples = append(w.samples, sample{start: sec, dur: 5, out: inputAbort})
	subs := w.subWindows()
	if len(subs) != 2 || subs[0].committed != 1000 || subs[1].committed != 0 || len(subs[1].durations) != 1 {
		t.Fatalf("subWindows = %d windows, committed %d/%d", len(subs), subs[0].committed, subs[1].committed)
	}
	if subs[0].cpu != 300*time.Millisecond || subs[1].cpu != 200*time.Millisecond {
		t.Errorf("sub-window CPU = %v, %v", subs[0].cpu, subs[1].cpu)
	}
	f := clientMetrics(w)
	if f.p99.Value != 0 || f.p99.Note != "a 1s sub-window has only 1 samples" {
		t.Errorf("p99 with a thin sub-window = %+v, want unreported", f.p99)
	}
	if f.mixP50.Value != 0 {
		t.Errorf("mix p50 with a kind missing from a sub-window = %v, want unreported", f.mixP50.Value)
	}
	w.samples, w.cpuMarks = w.samples[:1000], w.cpuMarks[:2]
	f = clientMetrics(w)
	// Kind 0 holds durations 1, 3, ..., 999 (median 499); kind 1 holds
	// 2, 4, ..., 1000 (median 500); weighted 3:1.
	if f.tps.Value != 1000 || f.p50.Value != 500e-6 || f.mixP50.Value != (3*499+500)/4.0/1e6 || f.cpu.Value != 300 {
		t.Errorf("tps %v, p50 %v ms, mix p50 %v ms, cpu %v us", f.tps.Value, f.p50.Value, f.mixP50.Value, f.cpu.Value)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{1, 2, 3}, 2}, {[]float64{1, 2, 3, 10}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
