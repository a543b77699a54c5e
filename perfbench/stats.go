package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// percentile returns the nearest-rank q-quantile of ds (0 when empty).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailSamples is how many samples must lie beyond a reported tail.
const tailSamples = 10

// tailOf returns the highest percentile of ds with at least ten samples
// beyond it, and that percentile; ok is false with ten samples or fewer.
func tailOf(ds []time.Duration) (v time.Duration, pct float64, ok bool) {
	n := len(ds)
	if n <= tailSamples {
		return 0, 0, false
	}
	pct = 100 * float64(n-tailSamples) / float64(n)
	return percentile(ds, float64(n-tailSamples)/float64(n)), pct, true
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// histP50 estimates the median of a registry histogram from its
// cumulative buckets, interpolating linearly inside the bucket that
// holds it; ok is false when the histogram is empty or absent. The
// registry exposes buckets only through its Prometheus text form.
func histP50(reg *obs.Registry, family string) (float64, bool) {
	var buf bytes.Buffer
	if reg.WritePrometheus(&buf) != nil {
		return 0, false
	}
	type bucket struct {
		le  float64
		cum float64
	}
	var bs []bucket
	sc := bufio.NewScanner(&buf)
	prefix := family + `_bucket{le="`
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := strings.TrimPrefix(line, prefix)
		q := strings.Index(rest, `"`)
		if q < 0 {
			continue
		}
		le, err1 := strconv.ParseFloat(rest[:q], 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSpace(rest[strings.LastIndex(rest, " ")+1:]), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		bs = append(bs, bucket{le, cum})
	}
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0, false
	}
	half := bs[len(bs)-1].cum / 2
	lo, loCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= half {
			if math.IsInf(b.le, 1) {
				return lo, true
			}
			return lo + (b.le-lo)*(half-loCum)/(b.cum-loCum), true
		}
		lo, loCum = b.le, b.cum
	}
	return lo, true
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// rssSampler polls the process's resident set size and keeps its
// high-water mark since the last reset, so each round gets a peak of
// its own. It reads /proc/self/statm; where that is unreadable every
// peak is zero and callers fall back to the process-wide peak.
type rssSampler struct {
	max  atomic.Int64
	stop chan struct{}
	done chan struct{}
}

// rssEvery is the sampling period: far shorter than any round.
const rssEvery = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	rss := pages * int64(os.Getpagesize())
	for {
		old := s.max.Load()
		if rss <= old || s.max.CompareAndSwap(old, rss) {
			return
		}
	}
}

// reset returns the peak since the previous reset, including a sample
// taken now, and starts a new one.
func (s *rssSampler) reset() int64 {
	s.sample()
	peak := s.max.Swap(0)
	s.sample()
	return peak
}

// close stops the sampler and waits for its goroutine to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}
