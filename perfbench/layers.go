package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/transport"
)

// sumTransport adds up the reliable-layer counters of every dapplet.
func sumTransport(ds []*core.Dapplet) transport.Stats {
	var s transport.Stats
	for _, d := range ds {
		t := d.Transport().Stats()
		s.DataSent += t.DataSent
		s.Retransmits += t.Retransmits
		s.AcksSent += t.AcksSent
		s.DupsDropped += t.DupsDropped
		s.Delivered += t.Delivered
		s.Failures += t.Failures
		s.BytesOut += t.BytesOut
		s.DatagramsOut += t.DatagramsOut
		s.IO.ReadCalls += t.IO.ReadCalls
		s.IO.WriteCalls += t.IO.WriteCalls
	}
	return s
}

// hostSteal reads the steal and total CPU time of the host's CPUs from
// /proc/stat, in clock ticks: time a virtual machine's CPUs were ready
// but the hypervisor ran something else. ok is false where there is no
// such file.
func hostSteal() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// snapshot is every counter the harness reads from outside the program
// at a phase boundary.
type snapshot struct {
	at          int64
	vmax        time.Duration // simulated network's critical-path clock
	tr          transport.Stats
	net         netsim.Stats
	relayFwd    uint64
	relayDup    uint64
	deadLetters uint64
	cpuNs       int64
	mallocs     uint64
	gc          [len(goMetricNames)]metrics.Sample
}

var goMetricNames = [...]string{
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/goroutines:goroutines",
}

// cpuTime is the process's user+system CPU time.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func takeSnapshot(ds []*core.Dapplet, net *netsim.Network, svcs []*session.Service) *snapshot {
	s := &snapshot{tr: sumTransport(ds)}
	if net != nil {
		s.net = net.Counters()
	}
	for _, sv := range svcs {
		st := sv.Relay().Stats()
		s.relayFwd += st.Forwarded
		s.relayDup += st.DupDropped
	}
	for _, d := range ds {
		s.deadLetters += d.DeadLetters()
	}
	for i, n := range goMetricNames {
		s.gc[i].Name = n
	}
	metrics.Read(s.gc[:])
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	s.cpuNs = cpuTime()
	s.at = now()
	return s
}

// windowEvery is the length of the closed phase's measurement windows
// (shorter phases get eight): throughput and per-operation cost are the
// median over windows, which keeps a brief stall (a GC cycle, a
// neighbour on the host) from moving them.
const windowEvery = 250 * time.Millisecond

// windowMark is the closed phase's counters at a window boundary.
type windowMark struct {
	at, cpuNs                        int64
	delivered, bytes, rounds, allocs uint64
}

// windowLog records window boundaries into a preallocated slice.
type windowLog struct {
	every  int64 // window length, ns
	marks  []windowMark
	allocs [2]metrics.Sample
}

func newWindowLog(dur time.Duration) *windowLog {
	every := min(windowEvery, dur/8)
	l := &windowLog{every: int64(every), marks: make([]windowMark, 0, int(dur/max(every, 1))+2)}
	// Counted like runtime.MemStats.Mallocs: small objects plus the tiny
	// allocations the runtime packs into shared blocks.
	l.allocs[0].Name = "/gc/heap/allocs:objects"
	l.allocs[1].Name = "/gc/heap/tiny/allocs:objects"
	return l
}

// mark records the counters at time at, if the log has room.
func (l *windowLog) mark(at int64, delivered, bytes, rounds uint64) {
	if len(l.marks) == cap(l.marks) {
		return
	}
	metrics.Read(l.allocs[:])
	l.marks = append(l.marks, windowMark{at: at, cpuNs: cpuTime(), delivered: delivered, bytes: bytes,
		rounds: rounds, allocs: l.allocs[0].Value.Uint64() + l.allocs[1].Value.Uint64()})
}

// windowRates holds one value per window for each windowed metric.
type windowRates struct {
	delivPerS, bytesPerS, roundsPerS, cpuNsPerOp, allocsPerOp []float64
}

// rates turns consecutive marks into per-window figures, skipping
// windows in which nothing was delivered.
func (l *windowLog) rates() windowRates {
	var w windowRates
	for i := 1; i < len(l.marks); i++ {
		a, b := l.marks[i-1], l.marks[i]
		dt := float64(b.at-a.at) / 1e9
		d := float64(b.delivered - a.delivered)
		if dt <= 0 || d == 0 {
			continue
		}
		w.delivPerS = append(w.delivPerS, d/dt)
		w.bytesPerS = append(w.bytesPerS, float64(b.bytes-a.bytes)/dt)
		w.roundsPerS = append(w.roundsPerS, float64(b.rounds-a.rounds)/dt)
		w.cpuNsPerOp = append(w.cpuNsPerOp, float64(b.cpuNs-a.cpuNs)/d)
		w.allocsPerOp = append(w.allocsPerOp, float64(b.allocs-a.allocs)/d)
	}
	return w
}

// goStats are the runtime's figures over the interval between two
// snapshots.
type goStats struct {
	cyclesPerS float64
	pauseP99Us float64
	gcCPUFrac  float64
	goroutines float64
}

func goDelta(a, b *snapshot) goStats {
	var g goStats
	secs := float64(b.at-a.at) / 1e9
	if secs > 0 {
		g.cyclesPerS = float64(b.gc[0].Value.Uint64()-a.gc[0].Value.Uint64()) / secs
	}
	g.pauseP99Us = histDeltaQuantile(a.gc[1].Value.Float64Histogram(), b.gc[1].Value.Float64Histogram(), 0.99) * 1e6
	if cpu := b.gc[3].Value.Float64() - a.gc[3].Value.Float64(); cpu > 0 {
		g.gcCPUFrac = (b.gc[2].Value.Float64() - a.gc[2].Value.Float64()) / cpu
	}
	g.goroutines = float64(b.gc[4].Value.Uint64())
	return g
}

// histDeltaQuantile is the q-quantile of the observations a cumulative
// runtime histogram gained between a and b, read as the upper bound of
// the bucket it falls in; 0 when nothing was observed.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}

// depthSampler polls queue depths while a traced phase runs: the
// largest transport send queue across dapplets and the largest sink
// inbox backlog.
type depthSampler struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	maxQueue int
	maxInbox int
}

const depthSampleEvery = 5 * time.Millisecond

func startDepthSampler(ds []*core.Dapplet, inboxes []*core.Inbox) *depthSampler {
	s := &depthSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(depthSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			for _, d := range ds {
				s.maxQueue = max(s.maxQueue, d.Transport().QueueDepth())
			}
			for _, in := range inboxes {
				s.maxInbox = max(s.maxInbox, in.Len())
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it, after which its maxima are
// safe to read.
func (s *depthSampler) finish() {
	close(s.stop)
	s.wg.Wait()
}
