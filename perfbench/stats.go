package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/engine"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile for it to count as measured rather than as one outlier.
const minBeyond = 10

// failedMs stands in for the latency of an operation that never completed:
// it misses every latency limit, yet stays a finite number JSON can carry.
const failedMs = 1e9

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which it sorts in place. +Inf samples (failed operations) sort last.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankIndex(len(xs), p)]
}

// rankIndex is the zero-based nearest-rank index of the p-th percentile of
// n samples. The slack keeps rounding error (99.9/100*10000 is
// 9990.000000000002) from pushing the rank up by one.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples that lie strictly after the p-th percentile's
// rank among n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// tailPercentile is the highest of the candidate percentiles that keeps at
// least minBeyond samples beyond it, or 50 when none does.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// finite maps +Inf (a failed operation) to failedMs for reporting.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return failedMs
	}
	return x
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop is a fixed-rate send schedule: batch i is due at start + i*period
// whether or not earlier batches have been answered.
type openLoop struct {
	start  time.Time
	period time.Duration
}

func (o openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.period) }

// late is how far behind its schedule the generator sent batch i.
func (o openLoop) late(i int, sent time.Time) time.Duration {
	if d := sent.Sub(o.due(i)); d > 0 {
		return d
	}
	return 0
}

// sinceDue is a latency measured from when batch i was due, not from when
// it was sent, so a stall also charges the batches queued behind it.
func (o openLoop) sinceDue(i int, at time.Time) float64 { return ms(at.Sub(o.due(i))) }

// seen is one subscriber delta: the sequence it carried and when it arrived.
type seen struct {
	seq uint64
	at  time.Time
}

// visibleAt returns when batch seq first became visible: the arrival of the
// first delta whose sequence is at or after seq (a batch with an empty delta
// becomes visible with the next one). deltas must be in arrival order, which
// for one subscriber is ascending sequence order.
func visibleAt(deltas []seen, seq uint64) (time.Time, bool) {
	i := sort.Search(len(deltas), func(i int) bool { return deltas[i].seq >= seq })
	if i == len(deltas) {
		return time.Time{}, false
	}
	return deltas[i].at, true
}

// phaseSum is the time the engine attributes to its phases. MaintainTime
// already contains DtreeTime, so the D-tree share is not added again.
func phaseSum(st engine.BatchStats) time.Duration {
	return st.ApplyTime + st.MaintainTime + st.TrimTime + st.ScheduleTime + st.ComputeTime
}

// unattributed is the caller-timed call minus every phase the engine
// reports: entry validation, scratch resets and result hand-off.
func unattributed(caller time.Duration, st engine.BatchStats) time.Duration {
	return caller - phaseSum(st)
}
