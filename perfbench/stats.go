package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dora/internal/workload"
)

// outcome is how the benchmark counts one driver call.
type outcome uint8

const (
	// committed: the transaction committed.
	committed outcome = iota
	// inputAbort: a specification-mandated abort (TM1's missing records,
	// TPC-C's 1% invalid items). It is a correct result, timed like a commit.
	inputAbort
	// failed: any other error. It counts in failed_frac and is never timed.
	failed
)

// classify maps a driver call's error onto the benchmark's outcomes: only
// workload.CauseInput is a specification outcome; every other cause
// (deadlock victim, lock-wait timeout, shed, deadline, device, a Failed
// engine, anything unclassified) is a failure.
func classify(err error) outcome {
	switch {
	case err == nil:
		return committed
	case workload.AbortCause(err) == workload.CauseInput:
		return inputAbort
	default:
		return failed
	}
}

// minTail is the tail rule: a percentile is reported only when at least this
// many samples lie strictly beyond it.
const minTail = 10

// quantile returns the nearest-rank q-quantile of ascending samples (0 for
// none).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tail returns the q-quantile of ascending samples, the number of samples
// strictly beyond it, and whether that number satisfies the tail rule.
func tail(sorted []int64, q float64) (v int64, beyond int, ok bool) {
	v = quantile(sorted, q)
	beyond = len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return v, beyond, beyond >= minTail
}

// metric is one named, unit-carrying figure. Note records what a reader needs
// to judge it: a ratio's numerator and base, a timing's sample count.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// ratio builds a per-base metric (per transaction, per 1000 transactions,
// per flush ...): num/base*scale, 0 when the base is empty. The note names
// both counts so every ratio travels with its base.
func ratio(name, unit string, num float64, numName string, base uint64, baseName string, scale float64) metric {
	m := metric{Name: name, Unit: unit, Note: fmt.Sprintf("%s=%.0f / %s=%d", numName, num, baseName, base)}
	if base > 0 {
		m.Value = num / float64(base) * scale
	}
	return m
}

// frac builds a [0,1] share metric of part over whole.
func frac(name string, part float64, partName string, whole float64, wholeName string) metric {
	m := metric{Name: name, Unit: "frac", Note: fmt.Sprintf("%s=%.6g / %s=%.6g", partName, part, wholeName, whole)}
	if whole > 0 {
		m.Value = part / whole
	}
	return m
}

// timing reports the median of ascending nanosecond samples in unit (one
// unit = div), with the sample count.
func timing(name, unit string, sorted []int64, div time.Duration) metric {
	return metric{Name: name, Unit: unit, Value: float64(quantile(sorted, 0.5)) / float64(div),
		Note: fmt.Sprintf("p50 of n=%d", len(sorted))}
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// subWindowLen is the target length of the sub-windows a measured window is
// cut into; the end-to-end timings are medians over them, so a garbage
// collection or a burst of host CPU steal moves at most a minority of them.
const subWindowLen = 2 * time.Second

// subWindow is one slice of a measured window: its committed calls, the
// ascending durations of its committed and input-aborted calls (all, and per
// transaction kind), and the process CPU time spent in it.
type subWindow struct {
	length    time.Duration
	committed int
	durations []int64
	byKind    [][]int64
	cpu       time.Duration
}

// subWindows cuts the window at the boundaries drive read the CPU time at,
// assigning each call to the sub-window it ended in.
func (w *window) subWindows() []subWindow {
	n := len(w.cpuMarks) - 1
	subs := make([]subWindow, n)
	for i := range subs {
		subs[i].length = w.subLen
		subs[i].cpu = w.cpuMarks[i+1] - w.cpuMarks[i]
		subs[i].byKind = make([][]int64, len(w.kinds))
	}
	for _, s := range w.samples {
		i := min(max(int(time.Duration(s.start+s.dur)/w.subLen), 0), n-1)
		if s.out == committed {
			subs[i].committed++
		}
		subs[i].durations = append(subs[i].durations, s.dur)
		subs[i].byKind[s.kind] = append(subs[i].byKind[s.kind], s.dur)
	}
	for i := range subs {
		subs[i].durations = sortedCopy(subs[i].durations)
		for k := range subs[i].byKind {
			subs[i].byKind[k] = sortedCopy(subs[i].byKind[k])
		}
	}
	return subs
}

// subMedian reports the median over sub-windows of f. When f declines any
// sub-window (too few samples for its percentile) the metric's value is 0
// and its note says why.
func subMedian(name, unit string, subs []subWindow, f func(subWindow) (float64, bool)) metric {
	vals := make([]float64, 0, len(subs))
	n := 0
	for _, s := range subs {
		v, ok := f(s)
		if !ok {
			return metric{Name: name, Unit: unit, Note: fmt.Sprintf("a %v sub-window has only %d samples", s.length.Round(time.Millisecond), len(s.durations))}
		}
		vals = append(vals, v)
		n += len(s.durations)
	}
	sort.Float64s(vals)
	return metric{Name: name, Unit: unit, Value: median(vals),
		Note: fmt.Sprintf("median of %d sub-windows of %v, n=%d", len(subs), subs[0].length.Round(time.Millisecond), n)}
}

// median of ascending values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
