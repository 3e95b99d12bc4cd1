package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// Calendar workload shape: Figure 1 with three sites of three members and
// a secretary each. Each round books the first slot every member has
// free after the previous booking, examining calWindow slots per
// availability query. The horizon is sized so a trial never exhausts it:
// a booking consumes ~7.5 slots at calBusy, so calSlots covers ~4300
// rounds, several times what one trial books.
//
// calCommittees independent committees (one world each, with its own
// simulated network) schedule concurrently. A round spends most of its
// time waiting for replies, and in the rounds that lose a datagram, for
// a 50 ms retransmission; how many rounds a short run loses is
// Poisson-noisy, and running committees side by side books several
// times the rounds in the same time, so the figures average over more
// losses. Each committee still schedules one round at a time. The paced
// phase deals its rounds to all of them, so a stall backs up only a
// committee's own few rounds; the closed phase runs the spec's
// outstanding count of them, few enough to leave the CPUs some slack.
const (
	calCommittees   = 6
	calSites        = 3
	calMembers      = 3
	calSlots        = 32768
	calWindow       = 28
	calBusy         = 0.2
	calLoss         = 0.0025
	calRoundTimeout = 20 * time.Second
)

// calBookingBytes is the verified payload of one booking at one member:
// the booked slot as a 64-bit word.
const calBookingBytes = 8

// buildCalendar assembles the world with the scenario's defaults (WAN
// between sites, LAN within, default transport) and then turns on loss
// on every inter-site link; setup itself runs lossless.
func buildCalendar(ctx context.Context, seed int64) (*scenario.CalendarWorld, error) {
	w, err := scenario.BuildCalendar(ctx, scenario.CalendarOptions{
		Sites: calSites, MembersPerSite: calMembers, Hierarchical: true,
		Slots: calSlots, BusyProb: calBusy, CommonSlot: -1, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	hosts := w.Net.Hosts()
	if len(hosts) != calSites {
		w.Close()
		return nil, fmt.Errorf("calendar world has hosts %v, want one per site", hosts)
	}
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			w.Net.SetLoss(hosts[i], hosts[j], calLoss)
		}
	}
	return w, nil
}

// calFlow drives back-to-back scheduling rounds on one world and checks
// every booking.
type calFlow struct {
	w     *scenario.CalendarWorld
	spans *spanBuf
	last  int // last booked slot

	attempted uint64
	failed    uint64
	exhausted bool
	calls     uint64
	windows   uint64
	proposals uint64
	errs      map[string]int
}

func newCalFlow(w *scenario.CalendarWorld, spans *spanBuf) *calFlow {
	return &calFlow{w: w, spans: spans, last: -1, errs: make(map[string]int)}
}

// round schedules one meeting after the last booking and verifies it:
// the slot must lie past the previous one and be booked at every
// member. It returns the round's start and end, and false once the
// horizon is used up (no round was attempted).
func (c *calFlow) round(ctx context.Context) (start, end int64, ok bool) {
	lo := c.last + 1
	if lo+4*calWindow > calSlots {
		c.exhausted = true
		return 0, 0, false
	}
	c.attempted++
	start = now()
	res, err := c.w.Scheduler.Schedule(ctx, lo, calSlots, calWindow)
	end = now()
	c.spans.add(spanSchedule, -1, c.attempted, start, end)
	c.calls += uint64(res.Calls)
	c.windows += uint64(res.Rounds)
	c.proposals += uint64(res.Proposals)
	if err != nil {
		c.failed++
		c.errs[errKind(err)]++
		return start, end, true
	}
	if res.Slot <= c.last {
		c.failed++
		c.errs["slot did not increase"]++
		return start, end, true
	}
	for _, name := range c.w.MemberNames {
		if !c.w.Members[name].Busy(res.Slot) {
			c.failed++
			c.errs["booking missing at a member"]++
			break
		}
	}
	c.last = res.Slot
	return start, end, true
}

// errKind names a failed round's error for the oracle's tally.
func errKind(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	return err.Error()
}

// calPhase is one measured stretch of calendar rounds.
type calPhase struct {
	lat     []uint32 // paced: due→done; closed: start→done
	late    []uint32 // paced: generator lateness
	n       int
	booked  uint64
	elapsed int64
}

// runClosed runs rounds back to back until the harness clock reaches
// deadline, writing one start→done latency per round into ph.
func (c *calFlow) runClosed(ctx context.Context, t0, deadline int64, ph *calPhase) {
	failedBefore := c.failed
	last := t0
	for now() < deadline && ph.n < len(ph.lat) && ctx.Err() == nil {
		start, end, ok := c.round(ctx)
		if !ok {
			break
		}
		ph.lat[ph.n] = clampNs(end - start)
		ph.n++
		last = end
	}
	ph.lat = ph.lat[:ph.n]
	ph.elapsed = last - t0
	ph.booked = uint64(ph.n) - (c.failed - failedBefore)
}

// calGroup is the committees of one trial.
type calGroup struct {
	flows    []*calFlow
	dapplets []*core.Dapplet // every dapplet of every committee
}

// committeeSeed derives committee i's seed from the workload seed.
func committeeSeed(seed int64, i int) int64 { return seed*calCommittees + int64(i) }

// buildCalGroup builds the committees, returning each world's build time.
func buildCalGroup(ctx context.Context, seed int64, spans *spanBuf) (*calGroup, []float64, error) {
	g := &calGroup{}
	var setupS []float64
	for i := 0; i < calCommittees; i++ {
		t0 := now()
		w, err := buildCalendar(ctx, committeeSeed(seed, i))
		t1 := now()
		if err != nil {
			g.close()
			return nil, nil, err
		}
		spans.add(spanSetup, -1, uint64(i), t0, t1)
		setupS = append(setupS, float64(t1-t0)/1e9)
		g.flows = append(g.flows, newCalFlow(w, spans))
		g.dapplets = append(g.dapplets, w.RT.Dapplets()...)
	}
	return g, setupS, nil
}

func (g *calGroup) close() {
	for _, c := range g.flows {
		c.w.Close()
	}
}

// totals sums the committees' round counters.
func (g *calGroup) totals() (attempted, failed, calls, windows, proposals uint64) {
	for _, c := range g.flows {
		attempted += c.attempted
		failed += c.failed
		calls += c.calls
		windows += c.windows
		proposals += c.proposals
	}
	return
}

// snapshot reads every counter of every committee; vmax is the sum of
// the committees' critical-path clocks.
func (g *calGroup) snapshot() *snapshot {
	s := takeSnapshot(g.dapplets, nil, nil)
	for _, c := range g.flows {
		n := c.w.Net.Stats()
		s.net.Sent += n.Sent
		s.net.LostLink += n.LostLink
		s.net.LostQueue += n.LostQueue
		s.vmax += n.MaxVirtual
	}
	return s
}

// runPaced issues n rounds on one open-loop schedule at rate, dealing
// them to the committees in turn. A committee works through its rounds
// in order, so one that stalls on a retransmission delays its rounds
// due behind it, and they are charged from their due times.
func (g *calGroup) runPaced(ctx context.Context, n uint64, rate float64) *calPhase {
	ph := &calPhase{lat: make([]uint32, n), late: make([]uint32, n)}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(float64(n)/rate*1e9)+calRoundTimeout)
	defer cancel()
	p := newPacer(rate)
	k := uint64(len(g.flows))
	queues := make([]chan uint64, k)
	done := make([]int, k)
	booked := make([]uint64, k)
	var wg sync.WaitGroup
	for j, c := range g.flows {
		queues[j] = make(chan uint64, n/k+1) // every round dealt to this committee
		wg.Add(1)
		go func() {
			defer wg.Done()
			failedBefore := c.failed
			for i := range queues[j] {
				_, end, ok := c.round(ctx)
				if !ok {
					continue // horizon used up; the trial reports it
				}
				ph.lat[i] = clampNs(end - p.due(i))
				done[j]++
			}
			booked[j] = uint64(done[j]) - (c.failed - failedBefore)
		}()
	}
	p.run(n, func(i uint64, due, start int64) bool {
		ph.late[i] = clampNs(start - due)
		queues[i%k] <- i
		return ctx.Err() == nil
	})
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	for j := range done {
		ph.n += done[j]
		ph.booked += booked[j]
	}
	return ph
}

// runClosed keeps the first outstanding committees scheduling back to
// back for dur.
func (g *calGroup) runClosed(ctx context.Context, outstanding int, dur time.Duration, maxRounds int) *calPhase {
	ctx, cancel := context.WithTimeout(ctx, dur+calRoundTimeout)
	defer cancel()
	flows := g.flows[:min(outstanding, len(g.flows))]
	phs := make([]*calPhase, len(flows))
	t0 := now()
	var wg sync.WaitGroup
	for j, c := range flows {
		phs[j] = &calPhase{lat: make([]uint32, maxRounds/len(flows)+1)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.runClosed(ctx, t0, t0+int64(dur), phs[j])
		}()
	}
	wg.Wait()
	ph := &calPhase{}
	for _, q := range phs {
		ph.lat = append(ph.lat, q.lat...)
		ph.n += q.n
		ph.booked += q.booked
		ph.elapsed = max(ph.elapsed, q.elapsed)
	}
	return ph
}
