package main

import (
	"fmt"
	"runtime"

	"repro/internal/wire"
)

// wireCost is the wire layer timed directly on one envelope shape.
type wireCost struct {
	encodeNs, encodeAllocs float64
	decodeNs, decodeAllocs float64
	envBytes               int
}

// wireBudget is roughly how long each of the encode and decode loops
// runs.
const wireBudget = 50_000_000 // ns

// measureWire times the send path's encoding (EncodeBody, then
// AppendEnvelopeBody into a reused buffer) and the receive path's
// UnmarshalEnvelope on env. Run it once traffic has stopped, so the
// allocation counts are the wire layer's own.
func measureWire(env *wire.Envelope) (wireCost, error) {
	var c wireCost
	buf := make([]byte, 0, 8192)
	encode := func() error {
		body, err := wire.EncodeBody(env.Body)
		if err != nil {
			return err
		}
		buf = wire.AppendEnvelopeBody(buf[:0], env, body)
		body.Release()
		return nil
	}
	if err := encode(); err != nil {
		return c, fmt.Errorf("encode %s: %w", env.Body.Kind(), err)
	}
	frame := append([]byte(nil), buf...)
	c.envBytes = len(frame)
	decode := func() error {
		_, err := wire.UnmarshalEnvelope(frame)
		return err
	}
	var err error
	if c.encodeNs, c.encodeAllocs, err = timeLoop(encode); err != nil {
		return c, err
	}
	if c.decodeNs, c.decodeAllocs, err = timeLoop(decode); err != nil {
		return c, fmt.Errorf("decode %s: %w", env.Body.Kind(), err)
	}
	return c, nil
}

// timeLoop runs op for about wireBudget and returns its mean time and
// heap allocations per call.
func timeLoop(op func() error) (ns, allocs float64, err error) {
	iters := 1
	for {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		t0 := now()
		for i := 0; i < iters; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		el := now() - t0
		runtime.ReadMemStats(&b)
		if el >= wireBudget || iters >= 1<<22 {
			return float64(el) / float64(iters), float64(b.Mallocs-a.Mallocs) / float64(iters), nil
		}
		iters *= 4
	}
}
