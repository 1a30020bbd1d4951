package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// how many samples lie beyond its rank.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	k := int(math.Ceil(q * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1], len(s) - k
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// passes is the number of whole passes a segment of `budget` runs: the
// budget over the nominal pass time, rounded, and at least atLeast. Fixed
// pass counts keep every run's mix of operations, and so its medians and
// its sample count, the same on every seed and machine load.
func passes(budget, nominal time.Duration, atLeast int) int {
	return max(atLeast, int(math.Round(float64(budget)/float64(nominal))))
}

// timings are a measured phase's operation latencies with their
// calibration factors, and its wall clock raw and calibrated (ms).
type timings struct {
	lat, scale    []float64
	busy, calBusy float64
}

// addSerial records one operation of a serial workload: its latency is
// also its share of the wall clock.
func (t *timings) addSerial(latMs, scale float64) {
	t.lat = append(t.lat, latMs)
	t.scale = append(t.scale, scale)
	t.busy += latMs
	t.calBusy += latMs * scale
}

// calMean is the mean calibrated latency.
func (t timings) calMean() float64 {
	var s float64
	for i := range t.lat {
		s += t.lat[i] * t.scale[i]
	}
	return s / float64(len(t.lat))
}

// tailBeyond10 is the highest percentile of n samples that has ten
// samples beyond it.
func tailBeyond10(n int) float64 { return float64(n-10) / float64(n) }

// reportLatency sets p50_ms, tail_ms and throughput from calibrated
// latencies and wall clock, and logs them with the raw ones, the tail's
// percentile and its sample count. The tail is percentile q, or with
// q = 0 the highest percentile that has ten samples beyond it.
func (r *run) reportLatency(t timings, q float64) {
	cal := make([]float64, len(t.lat))
	for i := range cal {
		cal[i] = t.lat[i] * t.scale[i]
	}
	if q == 0 {
		q = tailBeyond10(len(cal))
	}
	tv, beyond := percentile(cal, q)
	rawTail, _ := percentile(t.lat, q)
	n := float64(len(cal))
	r.set("p50_ms", median(cal), "ms")
	r.set("tail_ms", tv, "ms")
	r.set("throughput", 1000*n/t.calBusy, "1/s")
	logf("%s: calibrated p50 %.3f ms, tail p%.2f %.3f ms over %d samples (%d beyond), throughput %.2f/s",
		r.workload, median(cal), 100*q, tv, len(cal), beyond, 1000*n/t.calBusy)
	logf("%s: raw        p50 %.3f ms, tail p%.2f %.3f ms, throughput %.2f/s",
		r.workload, median(t.lat), 100*q, rawTail, 1000*n/t.busy)
	if far, _ := percentile(cal, tailBeyond10(len(cal))); q != tailBeyond10(len(cal)) {
		logf("%s: highest percentile with ten samples beyond it: p%.3f, %.3f ms calibrated",
			r.workload, 100*tailBeyond10(len(cal)), far)
	}
	if beyond < 10 {
		logf("%s: warning: only %d samples beyond the tail percentile", r.workload, beyond)
	}
}

// reportSetup sets setup_s, the median calibrated set-up time.
func (r *run) reportSetup(raw, scale []float64) {
	cal := make([]float64, len(raw))
	for i := range cal {
		cal[i] = raw[i] * scale[i]
	}
	r.set("setup_s", median(cal), "s")
	logf("%s: set-up median %.4f s calibrated, %.4f s raw, over %d repetitions", r.workload, median(cal), median(raw), len(raw))
}

// reportOutcome sets success_rate: operations that returned a correct
// 200 response (or a valid solve) over operations attempted.
func (r *run) reportOutcome() {
	if r.attempted > 0 {
		r.set("success_rate", float64(r.attempted-r.failed)/float64(r.attempted), "ratio")
	}
}

// permutation is the seeded rotation order of pass `pass`.
func permutation(seed int64, pass, n int) []int {
	return rand.New(rand.NewSource(seed*7919 + int64(pass))).Perm(n)
}
