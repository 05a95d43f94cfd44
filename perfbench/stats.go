package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; +Inf samples (refused requests) sort last. It is 0
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(s) {
		hi = len(s) - 1
	}
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fineBuckets are log-spaced latency bounds from 1µs to ~30s, ten per
// decade. The benchmark registers the program's latency histograms in
// its own registries with these bounds before the program does (a
// histogram's bounds belong to its first registration), so quantiles
// read from them resolve microsecond-scale units.
var fineBuckets = func() []float64 {
	var b []float64
	for e := -60; e <= 15; e++ {
		b = append(b, math.Pow(10, float64(e)/10))
	}
	return b
}()

// histQuantile estimates the q-quantile of a histogram snapshot by
// linear interpolation inside the bucket holding it; 0 when empty.
func histQuantile(m obs.Metric, q float64) float64 {
	if m.Count == 0 {
		return 0
	}
	target := q * float64(m.Count)
	var prevBound float64
	var prevCount int64
	for _, b := range m.Buckets {
		bound, err := strconv.ParseFloat(b.LE, 64)
		if err != nil { // "+Inf"
			return prevBound
		}
		if float64(b.Count) >= target {
			in := float64(b.Count - prevCount)
			if in == 0 {
				return bound
			}
			return prevBound + (bound-prevBound)*(target-float64(prevCount))/in
		}
		prevBound, prevCount = bound, b.Count
	}
	return prevBound
}

// histDelta is the histogram of the observations made between two
// snapshots.
func histDelta(before, after obs.Snapshot, name string) obs.Metric {
	a, _ := after.Get(name)
	b, _ := before.Get(name)
	d := a
	d.Count -= b.Count
	d.Sum -= b.Sum
	d.Buckets = append([]obs.Bucket(nil), a.Buckets...)
	for i := range d.Buckets {
		if i < len(b.Buckets) {
			d.Buckets[i].Count -= b.Buckets[i].Count
		}
	}
	return d
}

// counterDelta reads a counter's growth between two snapshots.
func counterDelta(before, after obs.Snapshot, name string) float64 {
	a, _ := after.Get(name)
	b, _ := before.Get(name)
	return a.Value - b.Value
}

// resetPeakRSS restarts the kernel's peak-resident-set counter (VmHWM)
// for this process, so peakRSSMB reports the peak of the timed phase
// alone rather than of set-up.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}
