package main

import (
	"os"
	"os/signal"
	"syscall"
	"time"
	"unsafe"
)

// epoch anchors the harness clock; now reads the monotonic clock as
// nanoseconds since it, so timestamps are plain int64s that fit in
// preallocated arrays.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// alarm wakes the generator at a due time through the kernel's interval
// timer: setitimer(ITIMER_REAL) raises SIGALRM when the time comes, and
// the runtime's signal thread hands it to the waiting goroutine within
// microseconds. The obvious ways to wait both distort the program under
// test on two CPUs. time.Sleep parks until the netpoller's
// millisecond-granular timeout fires, up to ~1 ms late, and that delay
// would be charged to every message. Spinning on the clock the whole
// way instead holds a P: goroutines the generator's own sends wake wait
// for its yields, and a yielding loop keeps the global run queue busy
// enough that idle Ps stop blocking in the netpoller, so socket
// wake-ups on the UDP workload run milliseconds late.
type alarm struct{ ch chan os.Signal }

func newAlarm() *alarm {
	a := &alarm{ch: make(chan os.Signal, 1)}
	signal.Notify(a.ch, syscall.SIGALRM)
	return a
}

func (a *alarm) stop() { signal.Stop(a.ch) }

// maxSpin bounds how early the alarm wakes the generator before a due
// time.
const maxSpin = 200_000

// itimerval is struct itimerval of setitimer(2).
type itimerval struct{ interval, value syscall.Timeval }

// waitUntil blocks until the harness clock reaches t. The alarm is set
// early by margin, which absorbs the usual wake-up delay when the CPUs
// are busy, and the generator spins on the clock for the rest. A
// signal left over from an earlier wait only ends one round early.
func (a *alarm) waitUntil(t, margin int64) {
	for {
		d := t - now()
		if d <= 0 {
			return
		}
		if d <= margin {
			continue
		}
		it := itimerval{value: syscall.NsecToTimeval(max(d-margin, 1000))}
		if _, _, errno := syscall.Syscall(syscall.SYS_SETITIMER, 0 /* ITIMER_REAL */, uintptr(unsafe.Pointer(&it)), 0); errno != 0 {
			time.Sleep(time.Duration(d))
			continue
		}
		<-a.ch
	}
}

// pacer is the open-loop generator: op i is due at t0 + i*interval no
// matter when earlier ops finished, and each op learns its due time so
// latency is charged from it. When one op stalls, the ops queued behind
// it start late and their latencies include the wait — the stall is
// charged to every message it delays, not only the one that hit it.
type pacer struct {
	t0       int64
	interval float64 // ns between due times
	now      func() int64
	wait     func(until int64)
}

// newPacer returns a pacer on the harness clock whose first op is due in
// 1 ms; run waits with an alarm.
func newPacer(rate float64) *pacer {
	return &pacer{t0: now() + 1_000_000, interval: 1e9 / rate, now: now}
}

// rate returns the pacer's operations per second.
func (p *pacer) rate() float64 { return 1e9 / p.interval }

// due returns op i's due time.
func (p *pacer) due(i uint64) int64 { return p.t0 + int64(float64(i)*p.interval) }

// run issues n ops in order, calling op with its index, due time and the
// time the generator actually started it (start - due is the lateness).
// It stops early when op returns false.
func (p *pacer) run(n uint64, op func(i uint64, due, start int64) bool) uint64 {
	wait := p.wait
	if wait == nil {
		a := newAlarm()
		defer a.stop()
		// A short spin: at most a quarter of the interval, so the
		// generator never holds a P for long.
		margin := min(maxSpin, int64(p.interval/4))
		wait = func(t int64) { a.waitUntil(t, margin) }
	}
	for i := uint64(0); i < n; i++ {
		d := p.due(i)
		if p.now() < d {
			wait(d)
		}
		if !op(i, d, p.now()) {
			return i + 1
		}
	}
	return n
}
