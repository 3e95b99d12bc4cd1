package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/wire"
)

// calRun is one untraced or traced measurement of a trial's committees.
type calRun struct {
	paced, closed *calPhase
	before, after *snapshot // around the closed phase
	heapAlloc     int64
	harnessBytes  int64

	attempted, calls, windows, proposals uint64 // closed-phase deltas
}

func (g *calGroup) measure(ctx context.Context, sp *spec, seconds float64) *calRun {
	pacedS := seconds * sp.pacedShare
	closedDur := time.Duration((seconds - pacedS) * 1e9)
	m := &calRun{}
	m.paced = g.runPaced(ctx, uint64(sp.rate*pacedS), sp.rate)
	runtime.GC()
	m.before = g.snapshot()
	a0, _, c0, w0, p0 := g.totals()
	m.closed = g.runClosed(ctx, sp.window, closedDur, int(sp.maxOpRate*closedDur.Seconds())+1)
	m.after = g.snapshot()
	a1, _, c1, w1, p1 := g.totals()
	m.attempted, m.calls, m.windows, m.proposals = a1-a0, c1-c0, w1-w0, p1-p0
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapAlloc = int64(ms.HeapAlloc)
	m.harnessBytes = int64(4 * (len(m.paced.lat) + len(m.paced.late) + cap(m.closed.lat)))
	return m
}

// calEndToEnd sets the end-to-end metrics over the rounds of runs taken
// together; an op is one scheduling round. deliv_per_s counts the
// messages the reliable layer delivered in order, the requests and
// replies the verified rounds were made of; goodput_mb_s counts the
// booked slot at each member, so it is a fixed multiple of
// rounds_per_s. The calendar pools its trials rather
// than taking their median: its figures are ruled by how many rounds
// lose a datagram and wait out a retransmission, a count that is
// Poisson-noisy in any one short trial and averages out over all of
// them. Its latency percentiles are over all rounds pooled too: one
// committee's p99 is a handful of rounds, too few to be steady. The
// exception is lat_p50_ms, the lowest of the trials' own medians. A
// paced round runs alone on mostly idle CPUs, so its median tracks how
// fast the host wakes them, which slows with the hypervisor's steal
// time; other tenants only ever slow a trial, so the quietest trial
// estimates the program's own latency best, and a slower program slows
// every trial alike.
func calEndToEnd(r *report, runs []*calRun) {
	var booked, ops, mallocs, delivered uint64
	var elapsed, cpuNs, vNs int64
	var lat, rounds []uint32
	var trialP50 []float64
	for _, m := range runs {
		booked += m.closed.booked
		ops += uint64(m.closed.n)
		elapsed += m.closed.elapsed
		cpuNs += m.after.cpuNs - m.before.cpuNs
		mallocs += m.after.mallocs - m.before.mallocs
		delivered += m.after.tr.Delivered - m.before.tr.Delivered
		vNs += int64(m.after.vmax - m.before.vmax)
		lat = append(lat, m.paced.lat[:m.paced.n]...)
		trialP50 = append(trialP50, medianMs(m.paced.lat[:m.paced.n]))
		rounds = append(rounds, m.closed.lat...)
	}
	if elapsed <= 0 || booked == 0 {
		r.problem("closed phase booked no meeting")
		return
	}
	el := float64(elapsed) / 1e9
	members := float64(calSites * calMembers)
	r.set("deliv_per_s", float64(delivered)/el)
	r.set("goodput_mb_s", float64(booked)*members*calBookingBytes/el/1e6)
	r.set("rounds_per_s", float64(booked)/el)
	r.set("cpu_us_per_op", float64(cpuNs)/1e3/float64(ops))
	r.set("allocs_per_op", float64(mallocs)/float64(ops))
	r.set("vlat_ms", float64(vNs)/1e6/float64(ops))
	setUnitQuantiles(r, "lat", [][]uint32{lat})
	if _, ok := r.values["lat_p50_ms"]; ok {
		r.set("lat_p50_ms", slices.Min(trialP50))
		r.info("lat_p50_ms %.4g: the lowest of the trials' medians %.4g", r.values["lat_p50_ms"], trialP50)
	}
	setUnitQuantiles(r, "round", [][]uint32{rounds})
}

// runCalendar measures sp.trials fresh sets of committees: setup_s,
// heap_mb and the per-layer metrics are medians across trials, the rest
// come from the trials' rounds pooled (see calEndToEnd).
func runCalendar(ctx context.Context, opt options, sp *spec, r *report) error {
	var spans *spanBuf
	if opt.trace {
		spans = newSpanBuf(spanCapacity)
	}
	build := func() (func(), error) {
		w, err := buildCalendar(ctx, opt.seed)
		if err != nil {
			return nil, err
		}
		return w.Close, nil
	}
	if _, err := timedBuilds(1, build); err != nil {
		return err
	}
	var setupS []float64
	trials := make([]*report, sp.trials)
	runs := make([]*calRun, sp.trials)
	for i := range trials {
		s, err := timedBuilds(sp.setups, build)
		if err != nil {
			return err
		}
		setupS = append(setupS, s...)
		trials[i] = r.child(i)
		var builds []float64
		if runs[i], builds, err = runCalendarTrial(ctx, opt, sp, spans, trials[i]); err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
		*r.held += runs[i].harnessBytes
		setupS = append(setupS, builds...)
		runtime.GC()
	}
	r.merge(trials)
	r.set("setup_s", medianOf(setupS))
	r.info("setup_s median of %d builds", len(setupS))
	if !opt.trace {
		calEndToEnd(r, runs)
		return nil
	}
	// The calendar harness is a loop around Schedule that writes into
	// preallocated sample slots; it has no per-round allocation to count.
	r.set("bench.harness_allocs_per_op", 0)
	return writeTrace(r, opt, spans, nil, nil)
}

// runCalendarTrial builds one set of committees and measures scheduling
// rounds on them, untraced and then traced. The worlds are closed on
// return; the result carries the untraced measurement and each world's
// build time.
func runCalendarTrial(ctx context.Context, opt options, sp *spec, spans *spanBuf, r *report) (*calRun, []float64, error) {
	g, builds, err := buildCalGroup(ctx, opt.seed, spans)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			g.close()
		}
	}()
	first := g.snapshot()
	runtime.GC()
	g.runPaced(ctx, uint64(sp.rate*warmupSeconds), sp.rate)

	measured := float64(opt.seconds) / float64(sp.trials)
	if opt.trace {
		measured /= 2
	}
	base := g.measure(ctx, sp, measured)
	var traced *calRun
	var depths *depthSampler
	var captured atomicEnv
	if opt.trace {
		for _, c := range g.flows {
			c.w.Coordinator.OnSend(func(env *wire.Envelope) { captureEnv(&captured, env) })
		}
		depths = startDepthSampler(g.dapplets, nil)
		traced = g.measure(ctx, sp, measured)
		depths.finish()
	}
	last := g.snapshot()

	attempted, failed, _, _, _ := g.totals()
	r.attempted = attempted
	r.failed = min(attempted, failed+(last.tr.Failures-first.tr.Failures)+(last.deadLetters-first.deadLetters))
	for j, c := range g.flows {
		r.info("oracle: committee %d: %d rounds, last booked slot %d of %d; failures %d %v", j, c.attempted, c.last, calSlots, c.failed, c.errs)
		if c.exhausted {
			r.problem("committee %d ran out of slot horizon before the phases' time did", j)
		}
	}
	if r.attempted > 0 {
		r.set("fail_frac", float64(r.failed)/float64(r.attempted))
	}
	r.set("heap_mb", float64(base.heapAlloc-base.harnessBytes-*r.held)/1e6)
	if !opt.trace {
		return base, builds, nil
	}

	// Tracing overhead: the traced half's figures against the untraced
	// half's, over this trial's rounds.
	ut, tr := newReport(nil, true), newReport(nil, true)
	calEndToEnd(ut, []*calRun{base})
	calEndToEnd(tr, []*calRun{traced})
	tLat, uLat := medianMs(traced.paced.lat[:traced.paced.n]), medianMs(base.paced.lat[:base.paced.n])
	r.set("bench.trace_lat_p50_ratio", ratio(tLat, uLat))
	r.set("bench.trace_deliv_ratio", ratio(tr.values["deliv_per_s"], ut.values["deliv_per_s"]))
	r.info("tracing overhead: lat_p50_ms %.4g traced vs %.4g untraced; deliv_per_s %.6g traced vs %.6g untraced",
		tLat, uLat, tr.values["deliv_per_s"], ut.values["deliv_per_s"])
	r.units["late"] = [][]uint32{slices.Clone(traced.paced.late[:traced.paced.n])}
	r.set("bench.samples", float64(traced.paced.n))

	// The copy-level core metrics need harness-owned messages; the
	// calendar's traffic is the program's own request/reply protocol.
	for _, n := range []string{"core.send_us_p50", "core.fanout_skew_us_p50", "core.wire_us_p50", "core.wire_us_p99",
		"core.inbox_wait_us_p50", "core.inbox_wait_us_p99", "core.inbox_depth_max",
		"relay.hop_us_p50", "relay.dup_drops", "session.initiate_s", "session.setup_bytes", "directory.register_ms"} {
		r.set(n, 0)
	}
	r.set("core.dead_letters", float64(last.deadLetters-first.deadLetters))
	setCounterMetrics(r, traced.before, traced.after, uint64(traced.closed.n))
	r.set("transport.queue_depth_max", float64(depths.maxQueue))
	r.set("transport.failures", float64(last.tr.Failures-first.tr.Failures))
	r.set("netsim.lost_link", float64(last.net.LostLink-first.net.LostLink))
	r.set("netsim.lost_queue", float64(last.net.LostQueue-first.net.LostQueue))
	r.set("calendar.calls_per_round", perOp(float64(traced.calls), traced.attempted))
	r.set("calendar.windows_per_round", perOp(float64(traced.windows), traced.attempted))
	r.set("calendar.proposals_per_round", perOp(float64(traced.proposals), traced.attempted))

	g.close()
	closed = true
	return base, builds, setWireMetrics(r, captured.Load())
}
