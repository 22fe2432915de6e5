package load

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Usage is the process's resource consumption at one instant (or, after
// Sub, over an interval).
type Usage struct {
	CPU        time.Duration // user + system, getrusage(RUSAGE_SELF)
	GCCycles   uint32
	AllocBytes uint64
}

// ReadUsage samples the process counters.
func ReadUsage() Usage {
	var ru syscall.Rusage
	var u Usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u.GCCycles, u.AllocBytes = m.NumGC, m.TotalAlloc
	return u
}

// Sub returns the consumption since an earlier sample.
func (u Usage) Sub(before Usage) Usage {
	return Usage{CPU: u.CPU - before.CPU, GCCycles: u.GCCycles - before.GCCycles, AllocBytes: u.AllocBytes - before.AllocBytes}
}

// Percentile is the nearest-rank p-th percentile (0 < p ≤ 1) of vs, which
// it sorts in place; 0 for an empty slice.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(p*float64(len(vs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return vs[i]
}

// Median is the mean of the middle one or two values.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n := len(vs); n%2 == 0 {
		return (vs[n/2-1] + vs[n/2]) / 2
	}
	return vs[len(vs)/2]
}

// Quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is how
// the driver computes a metric's spread.
func Quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// procStatusKB reads one "Name:   123 kB" field of /proc/self/status.
func procStatusKB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			if fs := strings.Fields(rest); len(fs) > 0 {
				v, _ := strconv.ParseFloat(fs[0], 64)
				return v
			}
		}
	}
	return 0
}

// PeakRSSMiB is the process's resident-set high-water mark.
func PeakRSSMiB() float64 { return procStatusKB("VmHWM") / 1024 }

// HostInfo records where and on what a workload ran.
type HostInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	// NoisyHost is set when the 1-minute load average was above 1.0
	// before the first request. Back-to-back runs keep both cores busy, so
	// within a set it mostly records the previous workload.
	NoisyHost bool `json:"noisy_host"`
}

// ReadHostInfo samples the host at the start of a workload.
func ReadHostInfo() HostInfo {
	h := HostInfo{
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fs := strings.Fields(string(b)); len(fs) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(fs[0], 64)
		}
	}
	h.NoisyHost = h.LoadAvg1 > 1.0
	return h
}

// commit resolves .git/HEAD by hand: the driver's checkout is not a git
// repository and has no git to ask.
func commit() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(root + "/.git/HEAD")
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		name, ok := strings.CutPrefix(ref, "ref: ")
		if !ok {
			return ref
		}
		if b, err := os.ReadFile(root + "/.git/" + name); err == nil {
			return strings.TrimSpace(string(b))
		}
		return fmt.Sprintf("unresolved %s", name)
	}
	return "unknown"
}
