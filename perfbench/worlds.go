package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/session"
	"repro/internal/transport"
)

// Every world uses the program's defaults: a zero transport.Config, the
// netsim defaults (LAN link model delivered without real delay, default
// queue capacity and shard count), and plain transport.ListenUDP, so a
// change to a default shows up as a measured change.

func newSimWorld(seed int64) *msgWorld {
	return &msgWorld{net: netsim.New(netsim.WithSeed(seed)), slotOf: make(map[netsim.Addr]int)}
}

// simDapplet starts a dapplet on a fresh port of host.
func (w *msgWorld) simDapplet(host, name, typ string) (*core.Dapplet, error) {
	ep, err := w.net.Host(host).BindAny()
	if err != nil {
		return nil, fmt.Errorf("bind %s: %w", host, err)
	}
	d := core.NewDapplet(name, typ, transport.NewSimConn(ep))
	w.dapplets = append(w.dapplets, d)
	return d, nil
}

func (w *msgWorld) stopAll() {
	for _, d := range w.dapplets {
		d.Stop()
	}
	if w.net != nil {
		w.net.Close()
	}
}

// fanoutSinks is Figure 3's fan-out width.
const fanoutSinks = 16

// buildFanout is Figure 3: one source outbox bound to the "in" inbox of
// fanoutSinks sink dapplets, each on its own simulated host.
func buildFanout(_ context.Context, seed int64, _ *spanBuf, _ uint64) (*msgWorld, error) {
	w := newSimWorld(seed)
	w.stop = w.stopAll
	w.inbox = "in"
	src, err := w.simDapplet("src", "source", "source")
	if err != nil {
		w.stop()
		return nil, err
	}
	w.src, w.out = src, src.Outbox("out")
	for j := 0; j < fanoutSinks; j++ {
		d, err := w.simDapplet(fmt.Sprintf("sink%02d", j), fmt.Sprintf("sink%02d", j), "sink")
		if err != nil {
			w.stop()
			return nil, err
		}
		w.out.Add(d.Inbox(w.inbox).Ref())
		w.sinks = append(w.sinks, d)
		w.slotOf[d.Addr()] = j
		w.sinkSlot = append(w.sinkSlot, j)
		w.sinkDepth = append(w.sinkDepth, 1)
	}
	return w, nil
}

// Tree workload shape (E14): members spread over hosts, one session with
// a relay tree at the default fanout.
const (
	treeMembers = 256
	treeHosts   = 32
)

// buildTree registers treeMembers session-attached dapplets in a
// directory and initiates one tree session over all of them from a
// separate initiator dapplet; member 0 is the broadcasting origin and
// the other members are the sinks.
func buildTree(ctx context.Context, seed int64, spans *spanBuf, rep uint64) (*msgWorld, error) {
	w := newSimWorld(seed)
	w.stop = w.stopAll
	w.inbox = "news"
	dir := directory.New()
	members := make([]relay.Member, treeMembers)
	spec := session.Spec{ID: "bench-tree", Task: "broadcast", Tree: &session.TreeSpec{Outbox: "bcast", Inbox: w.inbox}}
	for i := range members {
		name := fmt.Sprintf("m%03d", i)
		d, err := w.simDapplet(fmt.Sprintf("th%02d", i%treeHosts), name, "member")
		if err != nil {
			w.stop()
			return nil, err
		}
		w.sessions = append(w.sessions, session.Attach(d, session.Policy{}))
		t0 := now()
		err = dir.Register(ctx, directory.Entry{Name: name, Type: "member", Addr: d.Addr()})
		t1 := now()
		spans.add(spanRegister, spanSetup, rep, t0, t1)
		w.setup.registerNs += t1 - t0
		if err != nil {
			w.stop()
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
		members[i] = relay.Member{Name: name, Addr: d.Addr()}
		spec.Participants = append(spec.Participants, session.Participant{Name: name, Role: "member"})
	}
	iniD, err := w.simDapplet("initiator", "initiator", "initiator")
	if err != nil {
		w.stop()
		return nil, err
	}
	before := sumTransport(w.dapplets).BytesOut
	t0 := now()
	h, err := session.NewInitiator(iniD, dir).Initiate(ctx, spec)
	t1 := now()
	spans.add(spanInitiate, spanSetup, rep, t0, t1)
	if err != nil {
		w.stop()
		return nil, fmt.Errorf("initiate: %w", err)
	}
	w.setup.initiateNs = t1 - t0
	w.setup.setupBytes = sumTransport(w.dapplets).BytesOut - before

	tspec, _ := h.Tree()
	tree := relay.NewTree(members, tspec.Fanout)
	k := tree.Fanout()
	for c := 1; c <= k && c < treeMembers; c++ {
		w.slotOf[members[c].Addr] = c - 1
	}
	w.src = w.dapplets[0]
	w.out = w.src.Outbox(tspec.Outbox)
	for i := 1; i < treeMembers; i++ {
		w.sinks = append(w.sinks, w.dapplets[i])
		// Heap layout: member i's parent is (i-1)/k. Walk up to the
		// root's child this member descends from, counting levels.
		a, depth := i, 1
		for (a-1)/k != 0 {
			a = (a - 1) / k
			depth++
		}
		w.sinkSlot = append(w.sinkSlot, a-1)
		w.sinkDepth = append(w.sinkDepth, depth)
	}
	if got := tree.Depth(); got != maxOf(w.sinkDepth) {
		w.stop()
		return nil, fmt.Errorf("tree depth %d, harness layout says %d", got, maxOf(w.sinkDepth))
	}
	return w, nil
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// buildUDP is the one workload that crosses the kernel: a sender dapplet
// and a receiver dapplet, each on its own default loopback UDP socket.
func buildUDP(_ context.Context, _ int64, _ *spanBuf, _ uint64) (*msgWorld, error) {
	w := &msgWorld{slotOf: make(map[netsim.Addr]int), inbox: "in"}
	w.stop = w.stopAll
	for _, name := range []string{"udp-src", "udp-dst"} {
		pc, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			w.stop()
			return nil, err
		}
		w.dapplets = append(w.dapplets, core.NewDapplet(name, name, pc))
	}
	w.src, w.out = w.dapplets[0], w.dapplets[0].Outbox("out")
	dst := w.dapplets[1]
	w.out.Add(dst.Inbox(w.inbox).Ref())
	w.sinks = []*core.Dapplet{dst}
	w.slotOf[dst.Addr()] = 0
	w.sinkSlot = []int{0}
	w.sinkDepth = []int{1}
	return w, nil
}
