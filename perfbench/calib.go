package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Timings are calibrated against the host's speed, which on a shared
// machine drifts over minutes by more than any run can average out (see
// README.md): a fixed reference kernel, standard library only, is timed
// between operations, and each operation's time is scaled by calNominalMs
// over the kernel's time around it. A change to the program leaves the
// kernel alone and shows in full; a slower or faster host moves both and
// cancels. The raw numbers and the kernel times are logged.

// calNominalMs is the reference kernel's median time on the 2-core
// sizing machine; it only sets the scale of calibrated times.
const calNominalMs = 12.0

var (
	calFloats = func() []float64 {
		rng := rand.New(rand.NewSource(1))
		xs := make([]float64, 60000)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		return xs
	}()
	calDoc = func() []byte {
		type item struct {
			A, B float64
			S    string
		}
		items := make([]item, 2500)
		for i := range items {
			items[i] = item{float64(i) * 1.5, float64(i) / 7, fmt.Sprintf("item-%d", i)}
		}
		b, _ := json.Marshal(items)
		return b
	}()
	calSink atomic.Int64
)

// referenceKernel sorts a fixed array, round-trips a fixed JSON document
// and fills a map: sorting, allocation, reflection and hashing, the mix
// the measured code paths spend their time on.
func referenceKernel() {
	xs := append([]float64(nil), calFloats...)
	sort.Float64s(xs)
	var items []struct {
		A, B float64
		S    string
	}
	json.Unmarshal(calDoc, &items)
	b, _ := json.Marshal(items)
	m := make(map[int]int)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40000; i++ {
		m[rng.Intn(20000)] += i
	}
	calSink.Add(int64(xs[0]) + int64(len(b)+len(m)))
}

// calibrator holds a run's reference-kernel samples. threads is how many
// copies of the kernel a sample runs at once: as many as the workload
// keeps busy, so that a slowdown of either core shows.
type calibrator struct {
	threads int
	at      []time.Time
	ms      []float64
}

// sample times the reference kernel once on each of c.threads goroutines
// and records the mean; it returns the wall time the sample took.
func (c *calibrator) sample() time.Duration {
	start := time.Now()
	took := make([]float64, c.threads)
	var wg sync.WaitGroup
	for i := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			referenceKernel()
			took[i] = ms(time.Since(t0))
		}()
	}
	wg.Wait()
	c.ms = append(c.ms, mean(took))
	c.at = append(c.at, start)
	return time.Since(start)
}

// scale is the calibration factor for an operation around time t:
// calNominalMs over the median of the five kernel samples nearest t.
func (c *calibrator) scale(t time.Time) float64 {
	idx := make([]int, len(c.at))
	for i := range idx {
		idx[i] = i
	}
	dist := func(i int) time.Duration {
		d := c.at[i].Sub(t)
		if d < 0 {
			return -d
		}
		return d
	}
	sort.Slice(idx, func(a, b int) bool { return dist(idx[a]) < dist(idx[b]) })
	var near []float64
	for _, i := range idx[:min(5, len(idx))] {
		near = append(near, c.ms[i])
	}
	return calNominalMs / median(near)
}

// log reports the kernel's median and range.
func (c *calibrator) log(workload string) {
	s := sorted(c.ms)
	logf("%s: reference kernel %d samples on %d threads, median %.2f ms (min %.2f, max %.2f); nominal %.1f ms",
		workload, len(s), c.threads, median(s), s[0], s[len(s)-1], calNominalMs)
}
