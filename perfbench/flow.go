package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/wire"
)

// msgWorld is a built messaging workload: one source dapplet whose
// outbox reaches every sink, plus what the harness needs to attribute
// each copy to a first hop.
type msgWorld struct {
	net      *netsim.Network // nil over real UDP
	src      *core.Dapplet
	out      *core.Outbox
	sinks    []*core.Dapplet
	dapplets []*core.Dapplet    // every dapplet in the world, for counters
	sessions []*session.Service // tree members, for relay counters
	inbox    string             // the sinks' delivery inbox

	// slotOf maps the destination of each envelope the source itself
	// transmits (a sink, or a tree child) to a first-hop slot; sinkSlot
	// is the slot each sink's copy leaves through, and sinkDepth its hop
	// count from the source.
	slotOf    map[netsim.Addr]int
	sinkSlot  []int
	sinkDepth []int

	setup setupCosts
	stop  func()
}

// setupCosts are the layer costs a world build measured from outside.
type setupCosts struct {
	registerNs int64  // directory.Register calls, summed
	initiateNs int64  // time inside Initiator.Initiate
	setupBytes uint64 // transport BytesOut across dapplets during Initiate
}

func (w *msgWorld) slots() int { return len(w.slotOf) }

// phase is one measured stretch of a messaging run. Paced phases know
// their message count up front and record one latency per copy; closed
// phases keep window messages in flight and record one completion time
// per message. Buffers are allocated when the phase is made, so the
// delivery path writes into them without allocating.
type phase struct {
	base   uint64 // sequence number of the phase's first message
	copies int
	pacer  *pacer

	// Paced: lat[i*copies+sink] is due→handler for message i at sink;
	// late[i] is how late the generator started message i.
	lat     []uint32
	late    []uint32
	pending atomic.Int64 // copies not yet delivered
	drained chan struct{}

	// Closed: a ring of in-flight messages and per-message completion
	// latencies.
	mask      uint64
	remaining []atomic.Int32
	start     []int64
	rounds    []uint32
	nrounds   atomic.Uint64
	done      chan struct{}

	delivered atomic.Uint64
	bytes     atomic.Uint64
	sent      uint64 // messages sent; written by the generator only
	elapsed   int64  // closed: first send to last completion
	windows   *windowLog

	tr *copyTrace // per-copy timestamps, traced paced phases only
}

// closedRing bounds how many messages a closed phase tracks at once; a
// message still in flight when its slot comes round again stalls the
// generator until it completes.
const closedRing = 1 << 12

func newPacedPhase(base, n uint64, copies int, rate float64, traced bool, slots int) *phase {
	p := &phase{
		base:    base,
		copies:  copies,
		pacer:   newPacer(rate),
		lat:     make([]uint32, n*uint64(copies)),
		late:    make([]uint32, n),
		drained: make(chan struct{}),
	}
	p.pending.Store(int64(n) * int64(copies))
	if n == 0 {
		close(p.drained)
	}
	if traced {
		p.tr = newCopyTrace(n, copies, slots)
	}
	return p
}

func newClosedPhase(base uint64, copies, window int, maxRounds uint64, dur time.Duration) *phase {
	return &phase{
		windows:   newWindowLog(dur),
		base:      base,
		copies:    copies,
		mask:      closedRing - 1,
		remaining: make([]atomic.Int32, closedRing),
		start:     make([]int64, closedRing),
		rounds:    make([]uint32, maxRounds),
		done:      make(chan struct{}, window),
	}
}

// bufBytes is the memory the phase's preallocated buffers hold.
func (p *phase) bufBytes() int64 {
	b := int64(len(p.lat)+len(p.late)+len(p.rounds))*4 + int64(len(p.start))*8 + int64(len(p.remaining))*4
	if p.tr != nil {
		b += p.tr.bytes()
	}
	return b
}

// arrive records one verified copy of message i at sink, observed at t.
func (p *phase) arrive(sink int, i uint64, size int, t int64) {
	p.delivered.Add(1)
	p.bytes.Add(uint64(size))
	if p.lat != nil {
		k := i*uint64(p.copies) + uint64(sink)
		if k < uint64(len(p.lat)) {
			p.lat[k] = clampNs(t - p.pacer.due(i))
			if p.tr != nil {
				p.tr.handler[k] = t
			}
		}
		if p.pending.Add(-1) == 0 {
			close(p.drained)
		}
		return
	}
	slot := i & p.mask
	if p.remaining[slot].Add(-1) == 0 {
		if k := p.nrounds.Add(1) - 1; k < uint64(len(p.rounds)) {
			p.rounds[k] = clampNs(t - p.start[slot])
		}
		p.done <- struct{}{}
	}
}

// flow drives one messaging world: the generator goroutine sends, the
// sinks' Handle threads verify and time each copy.
type flow struct {
	w   *msgWorld
	gen *bodyGen
	orc *oracle
	cur atomic.Pointer[phase]

	seq      uint64 // next sequence number; generator goroutine only
	sendErrs uint64
	timeouts uint64

	spans    *spanBuf
	captured atomicEnv
}

// atomicEnv holds the envelope a traced run captured for wire timing.
type atomicEnv = atomic.Pointer[wire.Envelope]

func newFlow(w *msgWorld, gen *bodyGen, spans *spanBuf) *flow {
	f := &flow{w: w, gen: gen, orc: newOracle(gen, w.src.Addr(), len(w.sinks)), spans: spans}
	for j, d := range w.sinks {
		d.Handle(w.inbox, func(env *wire.Envelope) { f.deliver(j, env) })
	}
	return f
}

// deliver is the sinks' handler: verify the copy, then charge it to the
// current phase.
func (f *flow) deliver(sink int, env *wire.Envelope) {
	t := now()
	seq, size, ok := f.orc.observe(sink, env)
	if !ok {
		return
	}
	p := f.cur.Load()
	if p == nil || seq < p.base {
		return
	}
	p.arrive(sink, seq-p.base, size, t)
}

// installHooks registers the traced run's observers: OnSend on the
// source stamps each copy's first hop, OnRecv on each sink stamps its
// arrival before it is queued. They stay registered for the rest of the
// run (the dapplet API has no removal), so the traced phases run last.
func (f *flow) installHooks() {
	f.w.src.OnSend(f.onSourceSend)
	for j, d := range f.w.sinks {
		d.OnRecv(func(env *wire.Envelope) { f.onSinkRecv(j, env) })
	}
}

func (f *flow) onSourceSend(env *wire.Envelope) {
	t := now()
	captureEnv(&f.captured, env)
	p := f.cur.Load()
	if p == nil || p.tr == nil {
		return
	}
	seq, ok := seqOfMsg(env.Body)
	slot, known := f.w.slotOf[env.To.Dapplet]
	if ok && known && seq >= p.base {
		p.tr.sent(seq-p.base, slot, t)
	}
}

func (f *flow) onSinkRecv(sink int, env *wire.Envelope) {
	t := now()
	b, ok := env.Body.(*wire.Bytes)
	if !ok {
		return // a relay frame in transit; its payload is delivered separately
	}
	p := f.cur.Load()
	if p == nil || p.tr == nil {
		return
	}
	if seq, ok := seqOfBody(b.B); ok && seq >= p.base {
		p.tr.recv(seq-p.base, sink, t)
	}
}

// send transmits message seq through the source outbox.
func (f *flow) send(seq uint64) bool {
	if err := f.w.out.Send(f.gen.fill(seq)); err != nil {
		f.sendErrs++
		return false
	}
	return true
}

// drainTimeout bounds how long a phase waits for its last copies: ten
// times the transport's longest backed-off retransmission interval.
const drainTimeout = 10 * time.Second

// runPaced sends n messages on the open-loop schedule and waits until
// every copy has arrived (or the drain timeout passes).
func (f *flow) runPaced(ctx context.Context, n uint64, rate float64, traced bool) *phase {
	p := newPacedPhase(f.seq, n, len(f.w.sinks), rate, traced, f.w.slots())
	f.cur.Store(p)
	p.sent = p.pacer.run(n, func(i uint64, due, start int64) bool {
		p.late[i] = clampNs(start - due)
		ok := f.send(p.base + i)
		if p.tr != nil {
			p.tr.sendStart[i] = start
			p.tr.sendEnd[i] = now()
			f.spans.add(spanOutboxSend, -1, p.base+i, start, p.tr.sendEnd[i])
		}
		return ok && ctx.Err() == nil
	})
	f.seq += p.sent
	f.await(ctx, p.drained)
	return p
}

// runClosed keeps window messages in flight for dur: each completion
// (every copy of a message delivered) releases the next send. It
// returns once the last in-flight message completes.
func (f *flow) runClosed(ctx context.Context, window int, dur time.Duration, maxRounds uint64) *phase {
	copies := int32(len(f.w.sinks))
	p := newClosedPhase(f.seq, len(f.w.sinks), window, maxRounds, dur)
	f.cur.Store(p)
	ctx, cancel := context.WithTimeout(ctx, dur+drainTimeout)
	defer cancel()
	t0 := now()
	end := t0 + int64(dur)
	inflight := 0
	var last int64
	p.windows.mark(t0, 0, 0, 0)
	nextMark := t0 + p.windows.every
	for {
		for inflight < window && now() < end {
			slot := p.sent & p.mask
			if p.remaining[slot].Load() != 0 {
				break // the ring has come round to a message still in flight
			}
			p.start[slot] = now()
			p.remaining[slot].Store(copies)
			ok := f.send(p.base + p.sent)
			p.sent++
			if !ok {
				p.remaining[slot].Store(0)
				continue
			}
			inflight++
		}
		if inflight == 0 {
			break
		}
		select {
		case <-p.done:
			inflight--
			last = now()
			if last >= nextMark && last < end {
				p.windows.mark(last, p.delivered.Load(), p.bytes.Load(), p.nrounds.Load())
				nextMark += p.windows.every
			}
		case <-ctx.Done():
			f.timeouts += uint64(inflight)
			inflight = 0
		}
	}
	f.seq += p.sent
	p.elapsed = last - t0
	return p
}

// await waits for a phase to drain, counting a timeout.
func (f *flow) await(ctx context.Context, drained <-chan struct{}) {
	ctx, cancel := context.WithTimeout(ctx, drainTimeout)
	defer cancel()
	select {
	case <-drained:
	case <-ctx.Done():
		f.timeouts++
	}
}

// captureEnv keeps a private copy of the first small envelope a traced
// source transmits, so the wire layer can later be timed on the
// workload's own envelope shape.
func captureEnv(slot *atomicEnv, env *wire.Envelope) {
	if slot.Load() != nil {
		return
	}
	cp := *env
	switch b := env.Body.(type) {
	case *wire.Bytes:
		if len(b.B) > 512 {
			return // the common shape is the small body
		}
		cp.Body = &wire.Bytes{B: append([]byte(nil), b.B...)}
	case *wire.RelayFrame:
		fr := *b
		fr.CopyBody() // the frame's body lives in a pooled buffer
		cp.Body = &fr
	}
	slot.CompareAndSwap(nil, &cp)
}
