package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// spanCapacity is the traced run's call-span buffer: enough for the
// Outbox.Send calls of every trial's traced paced phase.
const spanCapacity = 1 << 16

// msgRun is one untraced or traced measurement of a messaging world.
type msgRun struct {
	paced, closed *phase
	unitSeconds   float64
	simulated     bool      // the world runs on a simulated network, which keeps virtual time
	before, after *snapshot // around the closed phase
	heapAlloc     int64     // live heap after the closed phase and a forced GC
	harnessBytes  int64     // of which the harness's own buffers
}

// snapshot reads every counter of the world, plus the simulated
// network's critical-path clock.
func (f *flow) snapshot() *snapshot {
	s := takeSnapshot(f.w.dapplets, f.w.net, f.w.sessions)
	if f.w.net != nil {
		s.vmax = f.w.net.MaxVirtual()
	}
	return s
}

// harnessBytes is the memory the harness holds outside its phases.
func (f *flow) harnessBytes() int64 {
	b := int64(len(f.gen.pool) + len(f.gen.buf))
	if f.spans != nil {
		b += int64(len(f.spans.spans)) * 32
	}
	return b
}

// measure runs one paced phase then one closed phase over seconds.
func (f *flow) measure(ctx context.Context, sp *spec, seconds float64, traced bool) *msgRun {
	pacedS := seconds * sp.pacedShare
	closedDur := time.Duration((seconds - pacedS) * 1e9)
	m := &msgRun{unitSeconds: sp.unitSeconds, simulated: f.w.net != nil}
	m.paced = f.runPaced(ctx, uint64(sp.rate*pacedS), sp.rate, traced)
	runtime.GC()
	m.before = f.snapshot()
	m.closed = f.runClosed(ctx, sp.window, closedDur, uint64(sp.maxOpRate*closedDur.Seconds())+1)
	m.after = f.snapshot()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapAlloc = int64(ms.HeapAlloc)
	m.harnessBytes = m.paced.bufBytes() + m.closed.bufBytes() + f.harnessBytes()
	return m
}

// pacedLat returns the paced phase's latency samples of sent messages.
func (m *msgRun) pacedLat() []uint32 {
	return m.paced.lat[:m.paced.sent*uint64(m.paced.copies)]
}

func (m *msgRun) closedRounds() []uint32 {
	return m.closed.rounds[:min(m.closed.nrounds.Load(), uint64(len(m.closed.rounds)))]
}

func (m *msgRun) closedSeconds() float64 { return float64(m.closed.elapsed) / 1e9 }

// endToEnd sets the end-to-end metrics from one measurement; op is one
// delivered copy.
func (m *msgRun) endToEnd(r *report) {
	win := m.closed.windows.rates()
	if len(win.delivPerS) == 0 {
		r.problem("closed phase completed no measurement window")
		return
	}
	// Before keepUnits: it adds this trial's samples to r.held, which
	// were not yet held when the heap was read.
	r.set("heap_mb", float64(m.heapAlloc-m.harnessBytes-*r.held)/1e6)
	r.set("deliv_per_s", medianOf(win.delivPerS))
	r.set("goodput_mb_s", medianOf(win.bytesPerS)/1e6)
	r.set("rounds_per_s", medianOf(win.roundsPerS))
	r.set("cpu_us_per_op", medianOf(win.cpuNsPerOp)/1e3)
	r.set("allocs_per_op", medianOf(win.allocsPerOp))
	// The critical path in the simulated network's virtual time: how
	// far its latest clock moved per message completed at every sink.
	if m.simulated {
		r.set("vlat_ms", perOp(float64(m.after.vmax-m.before.vmax)/1e6, m.closed.nrounds.Load()))
	}
	r.info("closed phase: %d windows of %v, median %.6g copies/s", len(win.delivPerS), time.Duration(m.closed.windows.every), r.values["deliv_per_s"])
	// Units are stretches of unitSeconds: the paced samples by due
	// time, the closed ones by completion order.
	paced := float64(m.paced.sent) / m.paced.pacer.rate()
	keepUnits(r, "lat", splitUnits(m.pacedLat(), int(paced/m.unitSeconds+0.5)))
	keepUnits(r, "round", splitUnits(m.closedRounds(), int(m.closedSeconds()/m.unitSeconds+0.5)))
}

// keepUnits keeps a copy of a trial's latency units for the run's
// percentiles, and prints the trial's own median.
func keepUnits(r *report, prefix string, units [][]uint32) {
	n := 0
	for _, u := range units {
		r.units[prefix] = append(r.units[prefix], slices.Clone(u))
		n += len(u)
	}
	*r.held += int64(4 * n)
	if p50, _, used, err := unitQuantiles(units); err == nil {
		r.info("%s: %d samples in %d units, median p50 %.4g ms", prefix, n, used, p50)
	}
}

// pctOf is the q-quantile of float samples, or 0 with a note when the
// sample is too small to support it.
func pctOf(r *report, name string, xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	v, err := percentile(s, q)
	if err != nil {
		r.info("%s not measured: %v", name, err)
		return 0
	}
	return v
}

// runMessaging measures sp.trials fresh worlds, each after sp.setups
// timed builds, and reports the median of each metric across them.
// One untimed build first pays for the code paths and heap growth every
// later build finds ready.
func runMessaging(ctx context.Context, opt options, sp *spec, r *report) error {
	var spans *spanBuf
	if opt.trace {
		spans = newSpanBuf(spanCapacity)
	}
	build := func() (func(), error) {
		w, err := sp.build(ctx, opt.seed, nil, 0)
		if err != nil {
			return nil, err
		}
		return w.stop, nil
	}
	if _, err := timedBuilds(1, build); err != nil {
		return err
	}
	var setupS []float64
	trials := make([]*report, sp.trials)
	var last *msgTrial
	for i := range trials {
		s, err := timedBuilds(sp.setups, build)
		if err != nil {
			return err
		}
		setupS = append(setupS, s...)
		trials[i] = r.child(i)
		t, err := runMessagingTrial(ctx, opt, sp, i, spans, trials[i])
		if err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
		last = t
		setupS = append(setupS, trials[i].values["setup_s"])
		runtime.GC()
	}
	r.merge(trials)
	if last.w.net == nil {
		r.notApplicable("vlat_ms", "the world runs on real sockets, which keep no virtual time")
	}
	r.set("setup_s", medianOf(setupS))
	r.info("setup_s median of %d builds: %.3g", len(setupS), setupS)
	// The harness's own share of allocs_per_op, which counts the whole
	// process: zero means the figure is the program's alone.
	harness := harnessPathAllocs(last.gen)
	r.info("allocs_per_op %.4g, of which the harness's own per copy: %.4g", r.values["allocs_per_op"], harness)
	if !opt.trace {
		return nil
	}
	r.set("bench.harness_allocs_per_op", harness)
	return writeTrace(r, opt, spans, last.traced.paced, last.w)
}

// msgTrial is what a traced trial leaves for the run's span output.
type msgTrial struct {
	w      *msgWorld
	gen    *bodyGen
	traced *msgRun
}

// runMessagingTrial builds one world and measures it: warm-up, an
// untraced paced and closed phase, and with tracing a traced pair after
// the hooks are registered. The world is stopped on return.
func runMessagingTrial(ctx context.Context, opt options, sp *spec, rep int, spans *spanBuf, r *report) (*msgTrial, error) {
	t0 := now()
	w, err := sp.build(ctx, opt.seed, spans, uint64(rep))
	t1 := now()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			w.stop()
		}
	}()
	spans.add(spanSetup, -1, uint64(rep), t0, t1)
	r.set("setup_s", float64(t1-t0)/1e9)

	gen := newBodyGen(opt.seed, sp.small, sp.large, sp.largePerMi)
	f := newFlow(w, gen, spans)
	first := f.snapshot()
	runtime.GC()
	f.runPaced(ctx, uint64(sp.rate*warmupSeconds), sp.rate, false)

	measured := float64(opt.seconds) / float64(sp.trials)
	if opt.trace {
		measured /= 2
	}
	base := f.measure(ctx, sp, measured, false)
	var traced *msgRun
	var depths *depthSampler
	if opt.trace {
		f.installHooks()
		inboxes := make([]*core.Inbox, len(w.sinks))
		for j, d := range w.sinks {
			inboxes[j] = d.Inbox(w.inbox)
		}
		depths = startDepthSampler(w.dapplets, inboxes)
		traced = f.measure(ctx, sp, measured, true)
		depths.finish()
	}
	last := f.snapshot()

	copies := uint64(len(w.sinks))
	r.attempted = f.seq * copies
	r.failed = f.orc.failures(f.seq) + f.sendErrs*copies + f.timeouts +
		(last.tr.Failures - first.tr.Failures) + (last.deadLetters - first.deadLetters)
	r.failed = min(r.failed, r.attempted)
	r.info("oracle: %d copies of %d messages; gaps %d, duplicates %d, corrupt %d, misrouted %d, missing %d; send errors %d, timeouts %d",
		r.attempted, f.seq, f.orc.gaps.Load(), f.orc.dups.Load(), f.orc.corrupt.Load(), f.orc.misroute.Load(),
		f.orc.missing(f.seq), f.sendErrs, f.timeouts)
	if r.attempted > 0 {
		r.set("fail_frac", float64(r.failed)/float64(r.attempted))
	}
	base.endToEnd(r)
	if !opt.trace {
		return &msgTrial{w: w, gen: gen}, nil
	}

	// Per-layer metrics come from the traced half; its end-to-end
	// figures against the untraced half's are the tracing overhead.
	tr := newReport(nil, true)
	traced.endToEnd(tr)
	r.problems = append(r.problems, tr.problems...)
	tLat, uLat := medianMs(traced.pacedLat()), medianMs(base.pacedLat())
	r.set("bench.trace_lat_p50_ratio", ratio(tLat, uLat))
	r.set("bench.trace_deliv_ratio", ratio(tr.values["deliv_per_s"], r.values["deliv_per_s"]))
	r.info("tracing overhead: lat_p50_ms %.4g traced vs %.4g untraced; deliv_per_s %.6g traced vs %.6g untraced",
		tLat, uLat, tr.values["deliv_per_s"], r.values["deliv_per_s"])
	r.units["late"] = [][]uint32{slices.Clone(traced.paced.late[:traced.paced.sent])}
	r.set("bench.samples", float64(len(traced.pacedLat())))

	bd := analyze(traced.paced, w)
	bd.printSelfTimes(r)
	if !bd.complete() {
		r.problem("%d of %d traced copies do not partition their latency: %d missing a hook timestamp, %d misordered",
			bd.traced-bd.copies, bd.traced, bd.incomplete, bd.misordered)
	}
	r.set("core.send_us_p50", pctOf(r, "core.send_us_p50", bd.sendUs, 0.5))
	r.set("core.fanout_skew_us_p50", pctOf(r, "core.fanout_skew_us_p50", bd.skewUs, 0.5))
	r.set("core.wire_us_p50", pctOf(r, "core.wire_us_p50", bd.wireUs, 0.5))
	r.set("core.wire_us_p99", pctOf(r, "core.wire_us_p99", bd.wireUs, 0.99))
	r.set("core.inbox_wait_us_p50", pctOf(r, "core.inbox_wait_us_p50", bd.inboxUs, 0.5))
	r.set("core.inbox_wait_us_p99", pctOf(r, "core.inbox_wait_us_p99", bd.inboxUs, 0.99))
	r.set("core.inbox_depth_max", float64(depths.maxInbox))
	r.set("core.dead_letters", float64(last.deadLetters-first.deadLetters))
	r.set("relay.hop_us_p50", bd.hopUs())

	ops := traced.closed.delivered.Load()
	setCounterMetrics(r, traced.before, traced.after, ops)
	r.set("transport.queue_depth_max", float64(depths.maxQueue))
	r.set("transport.failures", float64(last.tr.Failures-first.tr.Failures))
	r.set("netsim.lost_link", float64(last.net.LostLink-first.net.LostLink))
	r.set("netsim.lost_queue", float64(last.net.LostQueue-first.net.LostQueue))
	r.set("relay.dup_drops", float64(last.relayDup-first.relayDup))
	r.set("session.initiate_s", float64(w.setup.initiateNs)/1e9)
	r.set("session.setup_bytes", float64(w.setup.setupBytes))
	r.set("directory.register_ms", float64(w.setup.registerNs)/1e6)
	r.set("calendar.calls_per_round", 0)
	r.set("calendar.windows_per_round", 0)
	r.set("calendar.proposals_per_round", 0)

	w.stop()
	stopped = true
	if err := setWireMetrics(r, f.captured.Load()); err != nil {
		return nil, err
	}
	return &msgTrial{w: w, gen: gen, traced: traced}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setCounterMetrics sets the per-operation layer counters over the
// interval between two snapshots holding ops operations.
func setCounterMetrics(r *report, a, b *snapshot, ops uint64) {
	t0, t1 := a.tr, b.tr
	r.set("transport.dgrams_per_op", perOp(float64(t1.DatagramsOut-t0.DatagramsOut), ops))
	r.set("transport.bytes_per_op", perOp(float64(t1.BytesOut-t0.BytesOut), ops))
	r.set("transport.acks_per_op", perOp(float64(t1.AcksSent-t0.AcksSent), ops))
	r.set("transport.retx_per_op", perOp(float64(t1.Retransmits-t0.Retransmits), ops))
	r.set("transport.dups_per_op", perOp(float64(t1.DupsDropped-t0.DupsDropped), ops))
	frames := float64(t1.DataSent - t0.DataSent + t1.Retransmits - t0.Retransmits + t1.AcksSent - t0.AcksSent)
	r.set("transport.frames_per_dgram", perOp(frames, t1.DatagramsOut-t0.DatagramsOut))
	r.set("transport.syscalls_per_op", perOp(float64(t1.IO.ReadCalls-t0.IO.ReadCalls+t1.IO.WriteCalls-t0.IO.WriteCalls), ops))
	r.set("netsim.sent_per_op", perOp(float64(b.net.Sent-a.net.Sent), ops))
	r.set("relay.fwd_per_op", perOp(float64(b.relayFwd-a.relayFwd), ops))
	g := goDelta(a, b)
	r.set("go.gc_cycles_per_s", g.cyclesPerS)
	r.set("go.gc_pause_p99_us", g.pauseP99Us)
	r.set("go.gc_cpu_frac", g.gcCPUFrac)
	r.set("go.goroutines", g.goroutines)
}

// setWireMetrics times the wire layer on the envelope shape the traced
// run captured.
func setWireMetrics(r *report, env *wire.Envelope) error {
	if env == nil {
		r.problem("traced run captured no envelope to time the wire layer on")
		return nil
	}
	c, err := measureWire(env)
	if err != nil {
		return fmt.Errorf("wire timing: %w", err)
	}
	r.info("wire layer timed on %s envelopes of %d bytes", env.Body.Kind(), c.envBytes)
	r.set("wire.encode_ns", c.encodeNs)
	r.set("wire.encode_allocs", c.encodeAllocs)
	r.set("wire.decode_ns", c.decodeNs)
	r.set("wire.decode_allocs", c.decodeAllocs)
	r.set("wire.env_bytes", float64(c.envBytes))
	return nil
}

// writeTrace writes the recorded spans to the trace directory, when one
// was given.
func writeTrace(r *report, opt options, spans *spanBuf, p *phase, w *msgWorld) error {
	if spans.dropped() > 0 {
		r.info("span buffer full: %d call spans dropped", spans.dropped())
	}
	if opt.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(opt.traceDir, fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(fh, spans, p, w); err != nil {
		fh.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := fh.Close(); err != nil {
		return err
	}
	r.info("spans written to %s", path)
	return nil
}

// harnessPathAllocs measures the harness's own heap allocations per
// delivered copy: body generation, both source and sink hooks, the
// oracle and the paced and closed bookkeeping, driven on synthetic copies
// so nothing of the program runs.
func harnessPathAllocs(gen *bodyGen) float64 {
	const n = 2048
	src, dst := netsim.Addr{Host: "src", Port: 1}, netsim.Addr{Host: "dst", Port: 1}
	w := &msgWorld{slotOf: map[netsim.Addr]int{dst: 0}, sinkSlot: []int{0}}
	f := &flow{w: w, gen: gen, orc: newOracle(gen, src, 1)}
	f.captured.Store(&wire.Envelope{})
	paced := newPacedPhase(0, n, 1, 1e6, true, 1)
	closed := newClosedPhase(n, 1, n, n, time.Second)
	env := &wire.Envelope{FromDapplet: src, To: wire.InboxRef{Dapplet: dst}}
	copyPath := func(seq uint64) {
		env.Body = gen.fill(seq)
		f.onSourceSend(env)
		f.onSinkRecv(0, env)
		f.deliver(0, env)
	}
	// One P, as testing.AllocsPerRun does, so goroutines left from the
	// stopped world do not allocate inside the measured loop.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f.cur.Store(paced)
	for i := uint64(0); i < n; i++ {
		copyPath(i)
	}
	f.cur.Store(closed)
	for i := uint64(0); i < n; i++ {
		closed.start[i&closed.mask] = now()
		closed.remaining[i&closed.mask].Store(1)
		copyPath(n + i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / (2 * n)
}
