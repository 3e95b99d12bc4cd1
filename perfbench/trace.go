package main

import (
	"bufio"
	"encoding/json"
	"io"
	"slices"
	"sync/atomic"
)

// Span names. A span is one interval at a layer boundary; the per-copy
// segments partition a copy's end-to-end latency, the call spans time
// the harness's calls into each layer's public API.
const (
	spanCopy       = iota // due → handler: one copy's end-to-end latency
	spanGenLate           // due → Outbox.Send called (generator lateness)
	spanCoreSend          // Send called → OnSend of this copy's first hop
	spanCoreWire          // OnSend → OnRecv at the sink (transport, netsim or syscalls, relay hops, pump, decode)
	spanCoreInbox         // OnRecv → handler (inbox queue and consumer wake-up)
	spanOutboxSend        // time inside Outbox.Send
	spanSchedule          // time inside HeadScheduler.Schedule
	spanInitiate          // time inside Initiator.Initiate
	spanRegister          // time inside Directory.Register
	spanSetup             // one world build
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"copy", "bench.gen_late", "core.send", "core.wire", "core.inbox_wait",
	"core.Outbox.Send", "calendar.Schedule", "session.Initiate",
	"directory.Register", "setup",
}

// segmentParent is the parent each span name reports (-1: a root). The
// spans of one copy share its id (sequence × copies + sink); a call span
// carries the message sequence, round or setup index it belongs to.
var segmentParent = [numSpanNames]int{
	spanCopy: -1, spanGenLate: spanCopy, spanCoreSend: spanCopy, spanCoreWire: spanCopy,
	spanCoreInbox: spanCopy, spanOutboxSend: -1,
	spanSchedule: -1, spanInitiate: spanSetup, spanRegister: spanSetup, spanSetup: -1,
}

// span is one recorded call interval.
type span struct {
	name       uint8
	parent     int8
	id         uint64 // shared by every span of one message, copy or call
	start, end int64
}

// spanBuf is a preallocated, append-only span store: add claims a slot
// with one atomic increment and never allocates; spans past capacity are
// counted and dropped.
type spanBuf struct {
	spans []span
	n     atomic.Int64
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]span, capacity)} }

func (b *spanBuf) add(name, parent int, id uint64, start, end int64) {
	if b == nil {
		return
	}
	if k := b.n.Add(1) - 1; k < int64(len(b.spans)) {
		b.spans[k] = span{name: uint8(name), parent: int8(parent), id: id, start: start, end: end}
	}
}

func (b *spanBuf) recorded() []span {
	n := min(b.n.Load(), int64(len(b.spans)))
	return b.spans[:n]
}

func (b *spanBuf) dropped() int64 { return max(0, b.n.Load()-int64(len(b.spans))) }

// copyTrace holds the hook timestamps of a traced paced phase, one slot
// per message or copy, preallocated from the phase length. Each slot has
// a single writer (the generator, the source's sending goroutine, or one
// sink's threads), and all are read after the phase drains.
type copyTrace struct {
	copies, slots int
	sendStart     []int64 // per message: Outbox.Send called
	sendEnd       []int64 // per message: Outbox.Send returned
	onSend        []int64 // per message×slot: OnSend of the first-hop envelope
	onRecv        []int64 // per copy: OnRecv at the sink
	handler       []int64 // per copy: handler entered
}

func newCopyTrace(n uint64, copies, slots int) *copyTrace {
	return &copyTrace{
		copies: copies, slots: slots,
		sendStart: make([]int64, n),
		sendEnd:   make([]int64, n),
		onSend:    make([]int64, n*uint64(slots)),
		onRecv:    make([]int64, n*uint64(copies)),
		handler:   make([]int64, n*uint64(copies)),
	}
}

func (t *copyTrace) bytes() int64 {
	return 8 * int64(len(t.sendStart)+len(t.sendEnd)+len(t.onSend)+len(t.onRecv)+len(t.handler))
}

func (t *copyTrace) sent(i uint64, slot int, at int64) {
	if k := i*uint64(t.slots) + uint64(slot); k < uint64(len(t.onSend)) {
		t.onSend[k] = at
	}
}

func (t *copyTrace) recv(i uint64, sink int, at int64) {
	if k := i*uint64(t.copies) + uint64(sink); k < uint64(len(t.onRecv)) {
		t.onRecv[k] = at
	}
}

// segments returns copy k's boundary timestamps due, Send called, first
// hop's OnSend, OnRecv, handler, or ok=false if any hook did not fire.
func (t *copyTrace) segments(p *phase, k uint64, sinkSlot []int) (b [5]int64, ok bool) {
	i, sink := k/uint64(t.copies), int(k%uint64(t.copies))
	b = [5]int64{
		p.pacer.due(i),
		t.sendStart[i],
		t.onSend[i*uint64(t.slots)+uint64(sinkSlot[sink])],
		t.onRecv[k],
		t.handler[k],
	}
	for _, v := range b[1:] {
		if v == 0 {
			return b, false
		}
	}
	return b, true
}

// breakdown is the per-layer attribution of a traced paced phase.
type breakdown struct {
	traced     int        // copies the phase sent
	copies     int        // copies with every hook timestamp, in causal order
	incomplete int        // copies missing a timestamp: a hook was not attributed
	misordered int        // copies whose boundaries are not in causal order
	selfNs     [4]float64 // summed self time of a copy's four segments
	sendUs     []float64  // per message: time inside Outbox.Send
	skewUs     []float64  // per message: Send called → last first-hop OnSend
	wireUs     []float64  // per copy
	inboxUs    []float64  // per copy
	depthUs    map[int][]float64
}

// analyze splits every traced copy's latency into its segments. The
// segments are the differences of consecutive boundaries from due time
// to the handler, so they partition the latency whenever every boundary
// was stamped and the stamps are in causal order; a copy that fails
// either is counted, and ok reports that none did.
func analyze(p *phase, w *msgWorld) *breakdown {
	t := p.tr
	bd := &breakdown{depthUs: make(map[int][]float64)}
	n := uint64(len(t.sendStart))
	for i := uint64(0); i < p.sent && i < n; i++ {
		bd.sendUs = append(bd.sendUs, float64(t.sendEnd[i]-t.sendStart[i])/1e3)
		last := int64(0)
		for s := 0; s < t.slots; s++ {
			last = max(last, t.onSend[i*uint64(t.slots)+uint64(s)])
		}
		if last > 0 {
			bd.skewUs = append(bd.skewUs, float64(last-t.sendStart[i])/1e3)
		}
	}
	bd.traced = int(p.sent) * t.copies
	for k := uint64(0); k < p.sent*uint64(t.copies) && k < uint64(len(t.handler)); k++ {
		b, ok := t.segments(p, k, w.sinkSlot)
		if !ok {
			bd.incomplete++
			continue
		}
		if !slices.IsSorted(b[:]) {
			bd.misordered++
			continue
		}
		for s := 0; s < 4; s++ {
			bd.selfNs[s] += float64(b[s+1] - b[s])
		}
		bd.copies++
		bd.wireUs = append(bd.wireUs, float64(b[3]-b[2])/1e3)
		bd.inboxUs = append(bd.inboxUs, float64(b[4]-b[3])/1e3)
		depth := w.sinkDepth[int(k%uint64(t.copies))]
		bd.depthUs[depth] = append(bd.depthUs[depth], float64(b[3]-b[1])/1e3)
	}
	return bd
}

// hopUs is the median latency added per tree level: the growth of the
// median Send→OnRecv time from depth 1 to the deepest level, divided by
// the levels between them. Zero when every sink is one hop away.
func (bd *breakdown) hopUs() float64 {
	deepest := 0
	for d := range bd.depthUs {
		deepest = max(deepest, d)
	}
	if deepest < 2 || len(bd.depthUs[1]) == 0 {
		return 0
	}
	return (medianOf(bd.depthUs[deepest]) - medianOf(bd.depthUs[1])) / float64(deepest-1)
}

// complete reports whether every copy the phase sent was stamped at
// every boundary in causal order, so its segments partition its latency.
func (bd *breakdown) complete() bool { return bd.copies == bd.traced }

// printSelfTimes writes the per-layer self-time table.
func (bd *breakdown) printSelfTimes(r *report) {
	var total float64
	for _, v := range bd.selfNs {
		total += v
	}
	r.info("self time per layer over %d of %d traced copies (%d incomplete, %d misordered):",
		bd.copies, bd.traced, bd.incomplete, bd.misordered)
	for s, v := range bd.selfNs {
		share := 0.0
		if total > 0 {
			share = 100 * v / total
		}
		r.info("  %-16s %10.2f us/copy  %5.1f%%", spanNames[spanGenLate+s], v/1e3/float64(max(bd.copies, 1)), share)
	}
}

// spanRecord is the written form of a span.
type spanRecord struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	ID     uint64 `json:"id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceWriteMessages bounds how many traced messages have their copies'
// segments written out; the in-memory analysis covers all of them.
const traceWriteMessages = 16

// writeSpans writes the recorded call spans and the segments of the
// first traced messages' copies as JSON lines. A copy's id is
// message sequence × copies + sink.
func writeSpans(out io.Writer, buf *spanBuf, p *phase, w *msgWorld) error {
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	put := func(name int, id uint64, start, end int64) error {
		rec := spanRecord{Name: spanNames[name], ID: id, Start: start, End: end}
		if par := segmentParent[name]; par >= 0 {
			rec.Parent = spanNames[par]
		}
		return enc.Encode(rec)
	}
	for _, s := range buf.recorded() {
		if err := put(int(s.name), s.id, s.start, s.end); err != nil {
			return err
		}
	}
	if p != nil && p.tr != nil {
		t := p.tr
		lim := min(p.sent, traceWriteMessages) * uint64(t.copies)
		for k := uint64(0); k < lim; k++ {
			b, ok := t.segments(p, k, w.sinkSlot)
			if !ok {
				continue
			}
			id := (p.base+k/uint64(t.copies))*uint64(t.copies) + k%uint64(t.copies)
			if err := put(spanCopy, id, b[0], b[4]); err != nil {
				return err
			}
			for s := 0; s < 4; s++ {
				if err := put(spanGenLate+s, id, b[s], b[s+1]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}
