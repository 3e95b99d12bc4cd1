package main

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// Message bodies carry their own proof of integrity so a receiver can
// check every copy without shared state:
//
//	[0:8]    sequence number, little endian
//	[8:n-4]  bytes from a seed-derived pool at a seq-derived offset
//	[n-4:n]  FNV-1a 32 of bytes [0:n-4]
//
// The body size is a pure function of (seed, seq), so the receiver also
// knows how long each body must be.
const (
	bodyHeader  = 8
	bodyTrailer = 4
	minBody     = bodyHeader + bodyTrailer
	poolSize    = 16 << 10
)

// bodyGen makes the message bodies of one workload from its seed. fill
// reuses one buffer and one *wire.Bytes: every send path encodes the body
// before Send returns, so the generator's single goroutine may overwrite
// them for the next message without allocating.
type bodyGen struct {
	seed       uint64
	small      int
	large      int
	largePerMi int // large bodies per 1000 messages
	pool       []byte
	buf        []byte
	msg        wire.Bytes
}

func newBodyGen(seed int64, small, large, largePerMi int) *bodyGen {
	if small < minBody || (largePerMi > 0 && large < minBody) || large > poolSize/2 {
		panic("perfbench: body size outside [minBody, poolSize/2]")
	}
	g := &bodyGen{seed: uint64(seed), small: small, large: large, largePerMi: largePerMi}
	g.pool = make([]byte, poolSize)
	x := splitmix(g.seed ^ 0x706f6f6c)
	for i := range g.pool {
		x = splitmix(x)
		g.pool[i] = byte(x >> 32)
	}
	g.buf = make([]byte, max(small, large))
	return g
}

// splitmix is the SplitMix64 step: a cheap, well-mixed hash of x.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// size returns the body length of message seq.
func (g *bodyGen) size(seq uint64) int {
	if g.largePerMi > 0 && int(splitmix(g.seed^seq)%1000) < g.largePerMi {
		return g.large
	}
	return g.small
}

// payload returns the pool bytes message seq carries between its header
// and trailer.
func (g *bodyGen) payload(seq uint64, n int) []byte {
	span := n - minBody
	off := int(splitmix(seq^g.seed<<1) % uint64(poolSize-span))
	return g.pool[off : off+span]
}

// fill writes message seq into the reused buffer and returns the reused
// message pointing at it.
func (g *bodyGen) fill(seq uint64) *wire.Bytes {
	n := g.size(seq)
	b := g.buf[:n]
	binary.LittleEndian.PutUint64(b, seq)
	copy(b[bodyHeader:n-bodyTrailer], g.payload(seq, n))
	binary.LittleEndian.PutUint32(b[n-bodyTrailer:], checksum(b[:n-bodyTrailer]))
	g.msg.B = b
	return &g.msg
}

func checksum(b []byte) uint32 {
	// Inline FNV-1a: hash/fnv's New32a would allocate per call.
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// verify reports whether body is exactly the body of message seq.
func (g *bodyGen) verify(seq uint64, body []byte) bool {
	n := len(body)
	if n != g.size(seq) {
		return false
	}
	if binary.LittleEndian.Uint32(body[n-bodyTrailer:]) != checksum(body[:n-bodyTrailer]) {
		return false
	}
	return bytes.Equal(body[bodyHeader:n-bodyTrailer], g.payload(seq, n))
}

// seqOfBody reads the sequence number from a body, or ok=false if the
// body is too short to carry one.
func seqOfBody(b []byte) (uint64, bool) {
	if len(b) < minBody {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b), true
}

// seqOfMsg extracts the harness sequence number from an outgoing
// message: a plain body, or a relay frame wrapping one (a tree origin
// transmits relay frames whose payload is the encoded wire.Bytes).
func seqOfMsg(m wire.Msg) (uint64, bool) {
	switch b := m.(type) {
	case *wire.Bytes:
		return seqOfBody(b.B)
	case *wire.RelayFrame:
		r := wire.NewReader(b.Body)
		inner := r.Bytes()
		if r.Err() != nil {
			return 0, false
		}
		return seqOfBody(inner)
	}
	return 0, false
}

// sinkCursor is one receiver's FIFO position, padded so receivers on
// different goroutines do not share a cache line.
type sinkCursor struct {
	next atomic.Uint64
	_    [56]byte
}

// oracle checks every delivered copy: it must come from the workload's
// single sender, carry an intact body, and arrive exactly once in the
// sender's FIFO order at each sink. Each sink is observed from its own
// consumer goroutine; the counters are read once traffic has drained.
type oracle struct {
	gen   *bodyGen
	src   netsim.Addr
	sinks []sinkCursor

	gaps     atomic.Uint64 // copies skipped over: lost, or overtaken by a later one
	dups     atomic.Uint64 // copies at or behind the cursor: duplicated or reordered
	corrupt  atomic.Uint64 // bodies that fail the integrity check
	misroute atomic.Uint64 // copies from an unexpected sender
}

func newOracle(gen *bodyGen, src netsim.Addr, sinks int) *oracle {
	return &oracle{gen: gen, src: src, sinks: make([]sinkCursor, sinks)}
}

// observe checks one copy arriving at sink and returns its sequence
// number and body size; ok is false for a copy that must not count as a
// delivery.
func (o *oracle) observe(sink int, env *wire.Envelope) (seq uint64, size int, ok bool) {
	if env.FromDapplet != o.src {
		o.misroute.Add(1)
		return 0, 0, false
	}
	b, isBytes := env.Body.(*wire.Bytes)
	if !isBytes {
		o.corrupt.Add(1)
		return 0, 0, false
	}
	seq, ok = seqOfBody(b.B)
	if !ok || !o.gen.verify(seq, b.B) {
		o.corrupt.Add(1)
		return 0, 0, false
	}
	c := &o.sinks[sink]
	next := c.next.Load()
	switch {
	case seq < next:
		o.dups.Add(1)
		return 0, 0, false
	case seq > next:
		o.gaps.Add(seq - next)
	}
	c.next.Store(seq + 1)
	return seq, len(b.B), true
}

// missing counts the copies of messages [0, sent) no sink has reached:
// the tail a gap check cannot see.
func (o *oracle) missing(sent uint64) uint64 {
	var n uint64
	for i := range o.sinks {
		if got := o.sinks[i].next.Load(); got < sent {
			n += sent - got
		}
	}
	return n
}

// failures is the number of bad or absent copies once sent messages
// have all had their chance to arrive.
func (o *oracle) failures(sent uint64) uint64 {
	return o.gaps.Load() + o.dups.Load() + o.corrupt.Load() + o.misroute.Load() + o.missing(sent)
}
