package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	ramp := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(i + 1)
		}
		return xs
	}
	if _, err := percentile(ramp(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(ramp(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %d, %v; want 990", v, err)
	}
	if _, err := percentile(ramp(19), 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(ramp(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %d, %v; want 10", v, err)
	}
	if _, err := percentile([]int64(nil), 0.5); err == nil {
		t.Error("percentile of no samples must be refused")
	}
}

// fakeClock is a settable clock for the pacer.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64       { return c.t }
func (c *fakeClock) wait(until int64) { c.t = max(c.t, until) }

func TestPacerChargesStallToQueuedCopies(t *testing.T) {
	const interval = 1_000_000 // 1 ms
	const stall = 10_000_000   // message 3's send blocks for 10 ms
	clk := &fakeClock{}
	p := &pacer{t0: 0, interval: interval, now: clk.now, wait: clk.wait}
	lat := make([]int64, 8)
	p.run(uint64(len(lat)), func(i uint64, due, start int64) bool {
		clk.t += 100_000 // every send costs 0.1 ms
		if i == 3 {
			clk.t += stall
		}
		lat[i] = clk.now() - due // copy handled as the send returns
		return true
	})
	for i, l := range lat[:3] {
		if l != 100_000 {
			t.Errorf("message %d before the stall: latency %d, want 100000", i, l)
		}
	}
	// Message 3 was due at 3 ms and done at 13.1 ms. Each later message
	// could only start when its predecessor finished, so it is charged
	// what is left of the stall beyond its own due time.
	for i := 3; i < len(lat); i++ {
		done := int64(3*interval+stall) + int64(i-2)*100_000
		if want := done - int64(i)*interval; lat[i] != want {
			t.Errorf("message %d: latency %d, want %d", i, lat[i], want)
		}
	}
	if lat[7] < stall/2 {
		t.Errorf("message 7, queued behind the stall, reads %d ns: the stall was not charged to it", lat[7])
	}
}

// oracleFixture is an oracle over one sink with its bodies.
func oracleFixture() (*oracle, *bodyGen, netsim.Addr) {
	gen := newBodyGen(7, 32, 0, 0)
	src := netsim.Addr{Host: "src", Port: 1}
	return newOracle(gen, src, 1), gen, src
}

// deliver hands the oracle message seq as the sink would receive it:
// a freshly decoded copy of the body.
func deliverSeq(o *oracle, gen *bodyGen, src netsim.Addr, seq uint64, mutate func([]byte)) bool {
	b := slices.Clone(gen.fill(seq).B)
	if mutate != nil {
		mutate(b)
	}
	_, _, ok := o.observe(0, &wire.Envelope{FromDapplet: src, Body: &wire.Bytes{B: b}})
	return ok
}

func TestOracleFlagsEveryFault(t *testing.T) {
	cases := []struct {
		name  string
		order []uint64
		bad   map[int]func([]byte)
		from  netsim.Addr
	}{
		{name: "drop", order: []uint64{0, 1, 3, 4}},
		{name: "duplicate", order: []uint64{0, 1, 1, 2, 3, 4}},
		{name: "reorder", order: []uint64{0, 2, 1, 3, 4}},
		{name: "corrupt body", order: []uint64{0, 1, 2, 3, 4}, bad: map[int]func([]byte){2: func(b []byte) { b[10] ^= 1 }}},
		{name: "truncated body", order: []uint64{0, 1, 2, 3, 4}, bad: map[int]func([]byte){1: func(b []byte) {}}},
		{name: "lost tail", order: []uint64{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, gen, src := oracleFixture()
			for k, seq := range tc.order {
				if tc.name == "truncated body" && k == 1 {
					b := slices.Clone(gen.fill(seq).B)[:20]
					o.observe(0, &wire.Envelope{FromDapplet: src, Body: &wire.Bytes{B: b}})
					continue
				}
				deliverSeq(o, gen, src, seq, tc.bad[k])
			}
			if got := o.failures(5); got == 0 {
				t.Errorf("oracle reported no failure")
			}
		})
	}
	t.Run("misroute", func(t *testing.T) {
		o, gen, _ := oracleFixture()
		other := netsim.Addr{Host: "other", Port: 1}
		for seq := uint64(0); seq < 5; seq++ {
			deliverSeq(o, gen, other, seq, nil)
		}
		if o.misroute.Load() != 5 {
			t.Errorf("misrouted copies counted %d, want 5", o.misroute.Load())
		}
	})
	t.Run("clean", func(t *testing.T) {
		o, gen, src := oracleFixture()
		for seq := uint64(0); seq < 5; seq++ {
			if !deliverSeq(o, gen, src, seq, nil) {
				t.Fatalf("clean copy %d rejected", seq)
			}
		}
		if got := o.failures(5); got != 0 {
			t.Errorf("clean run reported %d failures", got)
		}
	})
}

func TestBodySizesFollowTheSeed(t *testing.T) {
	gen := newBodyGen(3, 48, 4096, 100)
	large := 0
	for seq := uint64(0); seq < 10000; seq++ {
		b := gen.fill(seq).B
		if !gen.verify(seq, b) {
			t.Fatalf("body %d fails its own check", seq)
		}
		if len(b) == 4096 {
			large++
		}
	}
	if large < 900 || large > 1100 {
		t.Errorf("%d of 10000 bodies are large, want about 1000", large)
	}
	again := newBodyGen(3, 48, 4096, 100)
	if !slices.Equal(again.fill(77).B, slices.Clone(gen.fill(77).B)) {
		t.Error("the same seed produced a different body")
	}
}

func TestHarnessPathAllocationFree(t *testing.T) {
	if got := harnessPathAllocs(newBodyGen(1, 256, 0, 0)); got != 0 {
		t.Errorf("harness allocates %.3f times per copy", got)
	}
	l := newWindowLog(time.Hour)
	if got := testing.AllocsPerRun(100, func() { l.mark(now(), 1, 2, 3) }); got != 0 {
		t.Errorf("window mark allocates %.1f times", got)
	}
	b := newSpanBuf(16)
	if got := testing.AllocsPerRun(100, func() { b.add(spanCopy, -1, 1, 2, 3) }); got != 0 {
		t.Errorf("span add allocates %.1f times", got)
	}
}

func TestTraceSegmentsPartitionLatency(t *testing.T) {
	const copies = 3
	w := &msgWorld{sinkSlot: []int{0, 1, 1}, sinkDepth: []int{1, 1, 2}}
	p := newPacedPhase(0, 2, copies, 1000, true, 2)
	p.pacer.t0 = 1000
	p.sent = 2
	for i := uint64(0); i < 2; i++ {
		due := p.pacer.due(i)
		p.tr.sendStart[i] = due + 5
		p.tr.sendEnd[i] = due + 50
		p.tr.sent(i, 0, due+10)
		p.tr.sent(i, 1, due+20)
		for s := 0; s < copies; s++ {
			p.tr.recv(i, s, due+100+int64(10*s))
			p.arrive(s, i, 32, due+130+int64(10*s))
		}
	}
	bd := analyze(p, w)
	if !bd.complete() || bd.copies != 2*copies || bd.incomplete+bd.misordered != 0 {
		t.Fatalf("analyze: %+v", bd)
	}
	var total float64
	for _, v := range p.lat {
		total += float64(v)
	}
	if sum := bd.selfNs[0] + bd.selfNs[1] + bd.selfNs[2] + bd.selfNs[3]; sum != total {
		t.Errorf("segment self times sum to %v, latencies to %v", sum, total)
	}
	onRecv := p.tr.onRecv[1]
	p.tr.onRecv[1] = p.tr.handler[1] + 1 // OnRecv after the handler: impossible
	if bd := analyze(p, w); bd.misordered != 1 || bd.complete() {
		t.Errorf("a copy out of causal order was not flagged: %+v", bd)
	}
	p.tr.onRecv[1] = onRecv
	p.tr.onSend[1*2+1] = 0 // a first hop whose OnSend was never attributed
	if bd := analyze(p, w); bd.incomplete != 2 || bd.complete() {
		t.Errorf("copies missing a hook timestamp were not flagged: %+v", bd)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the harness's metric tables
// and BENCHMARK.json in step, and checks that every workload listed
// there exists (the harness may carry more, runnable by hand).
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if lookupSpec(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %s is not in the harness", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, harness %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
