// Command perfbench is the dapplet system's benchmark. It drives one of
// four paper workloads through the public APIs of the internal packages
// in a single process, verifies every delivery, and prints each metric
// by name and unit. Informational lines start with "# "; the last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. With -trace 0 the metrics are the
// end-to-end set; with -trace 1 the run measures an untraced half, then
// registers the dapplet observer hooks and measures a traced half, and
// the metrics are the per-layer set.
//
// Run it through run.py, which builds it from the enclosing checkout:
//
//	python3 perfbench/run.py --workload tree256 --seed 1 --seconds 60 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// spec is one workload: what it drives and its fixed load constants.
type spec struct {
	name string
	why  string

	rate       float64 // paced phase: operations due per second
	window     int     // closed phase: operations kept in flight
	pacedShare float64 // share of the measured time spent in the paced phase
	trials     int     // fresh worlds measured per run; each metric is the median across them
	setups     int     // further world builds before each trial, timed and stopped; setup_s is the median of them all
	maxOpRate  float64 // sizes the closed phase's latency buffer (ops/s)
	// unitSeconds is the stretch of a phase whose p50 and p99 count as
	// one unit; long enough to hold several GC cycles and 1000 samples.
	unitSeconds float64

	small, large, largePerMi int // body sizes; largePerMi large bodies per 1000

	build func(ctx context.Context, seed int64, spans *spanBuf, rep uint64) (*msgWorld, error) // nil: calendar
}

// warmupSeconds of paced traffic precede each trial's measurement: a
// world's first messages pay for lazy connection state, pools and code
// paths.
const warmupSeconds = 0.25

var specs = []*spec{
	{
		name: "fanout16", why: "F3 fan-out: the per-copy path (outbox loop, header re-encode, transport, netsim, pump, inbox)",
		rate: 6000, window: 8, pacedShare: 0.5, trials: 5, setups: 8, maxOpRate: 60_000, unitSeconds: 0.5,
		small: 32, build: buildFanout,
	},
	{
		name: "tree256", why: "E14 relay-tree broadcast to 256 members: relay hops, session setup, GC pressure",
		rate: 100, window: 4, pacedShare: 0.5, trials: 5, setups: 6, maxOpRate: 5_000, unitSeconds: 1,
		small: 256, build: buildTree,
	},
	{
		name: "udp_stream", why: "one sender to one receiver over loopback UDP: syscalls, datagram sizing, acks",
		rate: 5000, window: 32, pacedShare: 0.5, trials: 5, setups: 12, maxOpRate: 200_000, unitSeconds: 0.5,
		small: 48, large: 4096, largePerMi: 100, build: buildUDP,
	},
	{
		name: "calendar_lossy", why: "F1 calendar over lossy WAN links: request/reply control plane and retransmission",
		rate: 120, window: 3, pacedShare: 0.7, trials: 5, setups: 4, maxOpRate: 5_000,
	},
}

// timedBuilds builds n worlds, stopping each with the function build
// returns, and returns each build's duration in seconds. A run spreads
// its builds over its length, a few before each trial, so that setup_s
// does not read the host's state at one moment only.
func timedBuilds(n int, build func() (func(), error)) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t0 := now()
		stop, err := build()
		t1 := now()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		stop()
		out = append(out, float64(t1-t0)/1e9)
		// Each build starts from a collected heap, so no build pays
		// for the garbage of the one before.
		runtime.GC()
	}
	return out, nil
}

func lookupSpec(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	commit   string
	traceDir string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed")
	fs.IntVar(&opt.seconds, "seconds", 60, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1: add a traced half and print the per-layer metrics")
	fs.StringVar(&opt.commit, "commit", "", "source commit, recorded in the output")
	fs.StringVar(&opt.traceDir, "trace-dir", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp := lookupSpec(opt.workload)
	if sp == nil || opt.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", specNames())
		return 2
	}
	opt.trace = trace == 1
	// Setup, drains and teardown come on top of the measured seconds;
	// the deadline turns a hang into a failed run, not a stuck one.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(opt.seconds)*time.Second+120*time.Second)
	defer cancel()

	r := newReport(stdout, opt.trace)
	r.record(opt, sp)
	steal0, total0, stealOK := hostSteal()
	var err error
	if sp.build != nil {
		err = runMessaging(ctx, opt, sp, r)
	} else {
		err = runCalendar(ctx, opt, sp, r)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	// A virtual machine's neighbours show up as steal time; a run that
	// reads far off its peers usually had a lot of it.
	if steal1, total1, ok := hostSteal(); ok && stealOK && total1 > total0 {
		r.info("host steal time during the run: %.2f%% of CPU time", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if err := r.finish(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func specNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// metricDef names a metric and its unit. The tables below must list the
// metrics of BENCHMARK.json in its order (TestMetricTablesMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"deliv_per_s", "1/s"},
	{"goodput_mb_s", "MB/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"rounds_per_s", "1/s"},
	{"round_p50_ms", "ms"},
	{"round_p99_ms", "ms"},
	{"vlat_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.samples", "count"},
	{"bench.harness_allocs_per_op", "count"},
	{"bench.trace_lat_p50_ratio", "ratio"},
	{"bench.trace_deliv_ratio", "ratio"},
	{"fail_frac", "ratio"},
	{"core.send_us_p50", "us"},
	{"core.fanout_skew_us_p50", "us"},
	{"core.wire_us_p50", "us"},
	{"core.wire_us_p99", "us"},
	{"core.inbox_wait_us_p50", "us"},
	{"core.inbox_wait_us_p99", "us"},
	{"core.inbox_depth_max", "count"},
	{"core.dead_letters", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.encode_allocs", "count"},
	{"wire.decode_ns", "ns"},
	{"wire.decode_allocs", "count"},
	{"wire.env_bytes", "B"},
	{"transport.dgrams_per_op", "count"},
	{"transport.bytes_per_op", "B"},
	{"transport.acks_per_op", "count"},
	{"transport.retx_per_op", "count"},
	{"transport.dups_per_op", "count"},
	{"transport.frames_per_dgram", "count"},
	{"transport.queue_depth_max", "count"},
	{"transport.failures", "count"},
	{"transport.syscalls_per_op", "count"},
	{"netsim.sent_per_op", "count"},
	{"netsim.lost_link", "count"},
	{"netsim.lost_queue", "count"},
	{"relay.fwd_per_op", "count"},
	{"relay.dup_drops", "count"},
	{"relay.hop_us_p50", "us"},
	{"session.initiate_s", "s"},
	{"session.setup_bytes", "B"},
	{"directory.register_ms", "ms"},
	{"calendar.calls_per_round", "count"},
	{"calendar.windows_per_round", "count"},
	{"calendar.proposals_per_round", "count"},
	{"go.gc_cycles_per_s", "1/s"},
	{"go.gc_pause_p99_us", "us"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.goroutines", "count"},
}

// report collects a run's (or one trial's) metrics and verdict.
type report struct {
	out       io.Writer
	prefix    string
	trace     bool
	values    map[string]float64
	units     map[string][][]uint32 // latency samples by unit, kept for the run's percentiles
	na        map[string]string     // metrics the workload cannot measure, with the reason
	held      *int64                // bytes of kept samples, shared with the trials
	attempted uint64
	failed    uint64
	problems  []string
}

func newReport(out io.Writer, trace bool) *report {
	return &report{out: out, trace: trace, values: make(map[string]float64),
		units: make(map[string][][]uint32), na: make(map[string]string), held: new(int64)}
}

// child returns the report of trial i, printing through r.
func (r *report) child(i int) *report {
	c := newReport(r.out, r.trace)
	c.prefix = fmt.Sprintf("trial %d: ", i)
	c.held = r.held
	return c
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// notApplicable marks a metric the workload has nothing to measure for:
// it prints as 0 and is not a problem.
func (r *report) notApplicable(name, reason string) {
	r.values[name] = 0
	r.na[name] = reason
}

// info prints an informational line.
func (r *report) info(format string, args ...any) {
	if r.out == nil {
		return
	}
	fmt.Fprintf(r.out, "# "+r.prefix+format+"\n", args...)
}

// problem records a reason the run's output is not correct.
func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	r.info("PROBLEM: %s", msg)
}

// refuse records a percentile the samples cannot support: a problem for
// the end-to-end figures a run reports, a note for the halves a traced
// run only compares.
func (r *report) refuse(format string, args ...any) {
	if r.trace {
		r.info(format, args...)
		return
	}
	r.problem(format, args...)
}

// merge folds the trials into r: each metric every trial measured is the
// median across them, and the latency percentiles are taken over the
// units of every trial together (see unitQuantiles).
func (r *report) merge(trials []*report) {
	byName := make(map[string][]float64)
	for _, t := range trials {
		for n, v := range t.values {
			byName[n] = append(byName[n], v)
		}
		r.attempted += t.attempted
		r.failed += t.failed
		r.problems = append(r.problems, t.problems...)
	}
	for n, vs := range byName {
		if len(vs) == len(trials) {
			r.set(n, medianOf(vs))
		}
	}
	for _, prefix := range []string{"lat", "round"} {
		var units [][]uint32
		for _, t := range trials {
			units = append(units, t.units[prefix]...)
		}
		if len(units) > 0 {
			setUnitQuantiles(r, prefix, units)
		}
	}
	// The traced run's generator lateness, pooled: a traced trial of a
	// low-rate workload sends too few messages for a p99 of its own.
	var late []uint32
	for _, t := range trials {
		for _, u := range t.units["late"] {
			late = append(late, u...)
		}
	}
	if len(late) > 0 {
		slices.Sort(late)
		p99, err := percentile(late, 0.99)
		if err != nil {
			r.info("bench.gen_late_p99_ms not measured: %v", err)
		}
		r.set("bench.gen_late_p99_ms", float64(p99)/1e6)
	}
}

// setUnitQuantiles sets <prefix>_p50_ms and <prefix>_p99_ms over units.
func setUnitQuantiles(r *report, prefix string, units [][]uint32) {
	p50, p99, used, err := unitQuantiles(units)
	if err != nil {
		r.refuse("%s percentiles: %v", prefix, err)
		return
	}
	n := 0
	for _, u := range units {
		n += len(u)
	}
	r.set(prefix+"_p50_ms", p50)
	r.set(prefix+"_p99_ms", p99)
	r.info("%s_p50_ms %.4g, %s_p99_ms %.4g: medians over %d units of %d samples in all", prefix, p50, prefix, p99, used, n)
}

// record prints the host fingerprint and the run's inputs.
func (r *report) record(opt options, sp *spec) {
	rec := map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit":   opt.commit,
		"workload": sp.name, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
		"paced_rate_per_s": sp.rate, "outstanding": sp.window, "paced_share": sp.pacedShare,
		"trials": sp.trials, "setups_per_trial": sp.setups, "warmup_s": warmupSeconds,
	}
	switch {
	case sp.build == nil:
		rec["calendar"] = map[string]any{"sites": calSites, "members_per_site": calMembers,
			"slots": calSlots, "window": calWindow, "busy_prob": calBusy, "inter_site_loss": calLoss}
	case sp.largePerMi > 0:
		rec["body_bytes"] = map[string]any{"small": sp.small, "large": sp.large, "large_per_1000": sp.largePerMi}
	default:
		rec["body_bytes"] = sp.small
	}
	b, _ := json.Marshal(rec)
	r.info("record %s", b)
}

// finish prints every collected value as an informational line, then the
// result line holding the metric set the run mode calls for.
func (r *report) finish() error {
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.info("%-32s %.6g", n, r.values[n])
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if reason, na := r.na[d.name]; na {
			r.info("%s does not apply: %s", d.name, reason)
		} else if !ok {
			r.problem("metric %s was not measured", d.name)
		} else if !r.trace && v <= 0 {
			r.problem("end-to-end metric %s is %g", d.name, v)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if r.attempted == 0 {
		r.problem("no operation was attempted")
		out.Attempted = 1
	}
	if r.failed > 0 {
		r.problem("%d of %d operations failed", r.failed, r.attempted)
	}
	out.Correct = len(r.problems) == 0
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.out, "%s\n", b)
	return err
}
