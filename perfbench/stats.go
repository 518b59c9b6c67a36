package main

import (
	"bufio"
	"bytes"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time. The kernel leaves
// time the hypervisor steals from the vCPUs out of it, which wall time
// cannot do.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the aggregate CPU line of /proc/stat and returns the
// ticks the hypervisor stole and the total ticks.
func hostTicks() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// samples collects repeated measurements of one quantity.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// median returns the middle value (mean of the two middle values for an even
// count), or 0 for no samples.
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// canary runs a fixed CPU and memory loop that does not touch the program:
// a dependent pseudo-random walk over a 16 MiB table. Its time moves only
// with the host, which tells host drift apart from program drift.
type canary struct{ table []uint64 }

func newCanary() *canary { return &canary{table: make([]uint64, 2<<20)} }

func (c *canary) run() time.Duration {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	mask := uint64(len(c.table) - 1)
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ c.table[x&mask]) & mask
		c.table[j] += x
	}
	sink = c.table[x&mask]
	return time.Since(t0)
}

var sink uint64

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// promScrape is one /metrics exposition, keyed by the full series name
// including its label set, e.g. `x_sum{endpoint="/v1/partition"}`.
type promScrape map[string]float64

func parseProm(body []byte) promScrape {
	out := promScrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta returns after − before for one series (0 when absent).
func (after promScrape) delta(before promScrape, series string) float64 {
	return after[series] - before[series]
}
