package main

import (
	"math"
	"net"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// hist is the latency histogram for everything the benchmark times itself:
// log-spaced buckets of 0.5 % from 100 ns to 100 s, two atomic adds per
// sample. internal/stats.Histogram is not used for that, for three reasons:
// its quantiles are bucket edges, so a p50 would read exactly the same from
// run to run until it jumped 2 %, where this one interpolates inside the
// bucket; its Observe keeps sum, min and max in three compare-and-swap
// loops, which two generators at 400K ops/s would contend on; and a change
// to the system under test must not be able to change the instrument. The
// one stats.Histogram read here is the switch node's own (ProcHist, for
// transport.node_proc_ns): that row reports the node's counter as it is.
type hist struct {
	counts []atomic.Uint64
	n      atomic.Uint64
}

const (
	histMin    = 100.0 // ns
	histGrowth = 1.005
)

var (
	histLogG    = math.Log(histGrowth)
	histBuckets = int(math.Ceil(math.Log(100e9/histMin)/histLogG)) + 2
)

func newHist() *hist { return &hist{counts: make([]atomic.Uint64, histBuckets)} }

func (h *hist) add(ns int64) {
	b := 0
	if v := float64(ns); v > histMin {
		b = int(math.Log(v/histMin)/histLogG) + 1
		if b >= histBuckets {
			b = histBuckets - 1
		}
	}
	h.counts[b].Add(1)
	h.n.Add(1)
}

func (h *hist) count() int { return int(h.n.Load()) }

// merge folds other into h.
func (h *hist) merge(other *hist) {
	for i := range other.counts {
		if c := other.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(other.n.Load())
}

// quantile returns the value at q in ns, interpolated within its bucket;
// 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := histMin, histMin
			if i > 0 {
				lo = histMin * math.Pow(histGrowth, float64(i-1))
				hi = lo * histGrowth
			}
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	return histMin * math.Pow(histGrowth, float64(histBuckets-1))
}

// pmax returns the highest percentile that still has at least ten samples
// beyond it, and that percentile's value in ns.
func (h *hist) pmax() (q, ns float64) {
	n := h.count()
	if n <= 10 {
		return 0, 0
	}
	q = 1 - 10/float64(n)
	return q, h.quantile(q)
}

// median returns the middle of vs (mean of the two middles when even).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method), which is the
// rule the acceptance check applies to the run-to-run spread.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// usage is one reading of the process's resource counters.
type usage struct {
	at      time.Time
	userUs  float64
	sysUs   float64
	ctxsw   float64
	maxRSSk float64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	us := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }
	return usage{
		at:      time.Now(),
		userUs:  us(ru.Utime),
		sysUs:   us(ru.Stime),
		ctxsw:   float64(ru.Nvcsw + ru.Nivcsw),
		maxRSSk: float64(ru.Maxrss),
	}
}

func (u usage) cpuUs() float64 { return u.userUs + u.sysUs }

// machine records where a result was measured; -compare refuses to set
// two files side by side when these differ.
type machine struct {
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Go            string `json:"go"`
	Kernel        string `json:"kernel"`
	Commit        string `json:"commit"`
	Link          string `json:"link"`
	RcvBufClamped bool   `json:"so_rcvbuf_clamped"`
}

// rcvBufWanted is what the transport asks the kernel for on every socket.
const rcvBufWanted = 4 << 20

func readMachine() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Link:       "loopback, not a real link",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; "unknown" is expected there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	m.RcvBufClamped = rcvBufClamped()
	return m
}

// rcvBufClamped asks for the transport's receive buffer on a scratch
// socket and reports whether the kernel granted less (Linux reads back
// twice the granted size, so anything below the request is a clamp).
func rcvBufClamped() bool {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return false
	}
	defer conn.Close()
	_ = conn.SetReadBuffer(rcvBufWanted)
	raw, err := conn.SyscallConn()
	if err != nil {
		return false
	}
	got := 0
	_ = raw.Control(func(fd uintptr) {
		got, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	})
	return got > 0 && got < rcvBufWanted
}

// heap is the allocator's and the collector's cumulative work.
type heap struct{ mallocs, bytes, gcCycles, gcPauseMs float64 }

func readHeap() heap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heap{float64(ms.Mallocs), float64(ms.TotalAlloc), float64(ms.NumGC), float64(ms.PauseTotalNs) / 1e6}
}
