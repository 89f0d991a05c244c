// Command perfbench is the repository's benchmark: it boots a 13-replica
// localhost TCP cluster in-process, drives one named workload at a fixed
// Poisson rate and then closed-loop at saturation, checks the workload's
// oracle, and prints every metric by name with its unit. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
// Untraced runs (-trace 0) report the end-to-end metrics. A traced run
// (-trace 1) wraps each layer's public entry points, records spans and
// counts at those boundaries, and reports the per-layer metrics.
//
//	go run . -workload transfer-mem -seed 1 -seconds 50 -trace 0
//
// See README.md for the workloads, metrics and what each should move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"qrdtm/internal/obs"
)

// setups is how many times an untraced run boots the cluster; setup_s is
// the median.
const setups = 11

// warmup is the head of each nominal phase that runs but is not measured.
const warmup = 2 * time.Second

// runDeadline bounds a whole run, so a hung transaction cannot keep the
// process alive.
const runDeadline = 150 * time.Second

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is the stamped record of one run, printed before the result and
// written to the output directory.
type report struct {
	Stamp   stamp    `json:"stamp"`
	Valid   bool     `json:"nominal_valid"`
	Invalid []string `json:"nominal_invalid_reasons,omitempty"`
	// Nominal summarizes the nominal phase's intended-to-commit latency
	// distribution (ms), over every window, and the generator's worst lag.
	Nominal map[string]float64 `json:"nominal_latency_ms"`
	// Steal gives, per phase, the mean share of CPU the host stole and how
	// many of the phase's windows were measured.
	Steal    map[string]float64 `json:"host_steal"`
	Oracles  []string           `json:"oracles"`
	Failures []string           `json:"failures,omitempty"`
	Result   result             `json:"result"`
}

func main() {
	workloadName := flag.String("workload", "", "workload: transfer-mem, transfer-wal or nested-rbtree")
	seed := flag.Uint64("seed", 1, "seed for arrivals and transaction inputs")
	seconds := flag.Int("seconds", 50, "measured seconds (nominal plus saturated phase)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement, 0 the end-to-end one")
	out := flag.String("out", ".bench_build/perfbench", "directory for reports, traces and WAL directories")
	commit := flag.String("commit", "unknown", "git commit of the code under test, for the stamp")
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace == 1, *out, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, out, commit string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 2 {
		return fmt.Errorf("-seconds %d: need at least 2", seconds)
	}
	tmp := filepath.Join(out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	rep := report{Stamp: newStamp(w, seed, seconds, traced, commit)}
	total := time.Duration(seconds) * time.Second
	if traced {
		err = runTraced(ctx, w, seed, total, tmp, out, &rep)
	} else {
		err = runEndToEnd(ctx, w, seed, total, tmp, &rep)
	}
	if err != nil {
		return err
	}
	rep.Result.Correct = len(rep.Failures) == 0
	return emit(rep, out)
}

// runEndToEnd boots the cluster several times (setup_s is the median), then
// runs the nominal and saturated phases untraced on the last boot.
func runEndToEnd(ctx context.Context, w workload, seed uint64, total time.Duration, tmp string, rep *report) error {
	var setupS []float64
	var d *deployment
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = boot(ctx, w, tmp, false); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer d.close()
	// Most of the time goes to the nominal phase, whose p99 needs samples.
	nomDur := total * 80 / 100
	satDur := total - nomDur
	p := &rep.Stamp.Params
	p.NominalSec, p.SaturateSec = nomDur.Seconds(), satDur.Seconds()
	txn := func(ctx context.Context, slot int, _ uint64, rng *rand.Rand) error { return d.txn(ctx, slot, rng) }

	probe := startStealProbe()
	nom := runNominal(ctx, seed, w.rate, warmup, nomDur-warmup, 0, txn)
	nomEdges, nomStolen := probe.windows()
	probe = startStealProbe()
	sat := runSaturated(ctx, seed, satDur, txn)
	satEdges, satStolen := probe.windows()
	rep.checkNominal(nom)
	rep.summarize(nom)
	rep.account(nom, sat)
	rep.oracle("workload", d.verify())

	// Latency over the arrivals intended in quiet windows; a sample outside
	// every window (none in practice) is kept.
	quiet := quietWindows(nomStolen)
	var lat []float64
	for i, at := range nom.latAt {
		if k := windowOf(nomEdges, at); k < 0 || quiet[k] {
			lat = append(lat, nom.latMs[i])
		}
	}
	rep.noteSteal("nominal", nomStolen, quiet)
	var rates []float64
	satQuiet := quietWindows(satStolen)
	for i, r := range windowRates(sat.commits, satEdges) {
		if satQuiet[i] {
			rates = append(rates, r)
		}
	}
	rep.noteSteal("saturated", satStolen, satQuiet)

	m := metrics{}
	m.set("setup_s", median(setupS), "s")
	m.pct("p50_ms", lat, 0.50, "ms")
	m.quantile("p99_ms", lat, 0.99, "ms", windowedPercentile)
	m.set("peak_txn_s", median(rates), "1/s")
	m.set("completed_frac", float64(nom.completed)/float64(max(nom.offered, 1)), "ratio")
	// Live heap of the cluster and runtimes: drop the phase records first
	// so the benchmark's own sample arrays are not counted.
	nom, sat = nominal{}, saturated{}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("heap_mb", float64(ms.HeapAlloc)/1e6, "MB")
	rep.Result.Metrics = m
	return nil
}

// runTraced measures an untraced nominal phase as the overhead reference,
// then boots a traced cluster and measures the per-layer metrics over a
// traced nominal phase.
func runTraced(ctx context.Context, w workload, seed uint64, total time.Duration, tmp, out string, rep *report) error {
	refDur := total * 20 / 100
	tracedDur := total - refDur
	rep.Stamp.Params.NominalSec = tracedDur.Seconds()

	ref, err := boot(ctx, w, tmp, false)
	if err != nil {
		return err
	}
	refNom := runNominal(ctx, seed, w.rate, warmup, refDur-warmup, 0,
		func(ctx context.Context, slot int, _ uint64, rng *rand.Rand) error { return ref.txn(ctx, slot, rng) })
	rep.oracle("workload (reference phase)", ref.verify())
	if err := ref.close(); err != nil {
		return err
	}

	d, err := boot(ctx, w, tmp, true)
	if err != nil {
		return err
	}
	defer d.close()
	d.rec.take() // set-up traffic is not part of the window
	tw := tracedWindow{before: d.counters(), refP50: median(refNom.latMs)}
	t0 := time.Now()
	tw.gen = runNominal(ctx, seed, w.rate, warmup, tracedDur-warmup, 0,
		func(ctx context.Context, slot int, rid uint64, rng *rand.Rand) error {
			return d.rec.txn(ctx, rid, func(ctx context.Context) error { return d.txn(ctx, slot, rng) })
		})
	tw.wall = time.Since(t0)
	tw.after = d.counters()
	tw.spans = d.rec.take()
	rep.checkNominal(tw.gen)
	rep.account(refNom, saturated{})
	rep.account(tw.gen, saturated{})
	rep.oracle("workload", d.verify())

	all := obs.MergeSpans(d.reg.Spans().Spans())
	tw.check = obs.CheckTrace(all)
	if tw.check.Traces == 0 {
		rep.oracle("trace check", errors.New("no complete trace in the span buffer"))
	} else {
		rep.oracle("trace check", tw.check.Err())
	}
	tw.phases = obs.DecomposePhases(all)
	if tw.codec, err = replayCodec(d.rec.samples); err != nil {
		rep.oracle("codec replay", err)
	}
	rep.Result.Metrics = layerMetrics(d, tw)
	return writeSpans(filepath.Join(out, w.name+".spans.jsonl"), tw.spans)
}

// checkNominal is the validity guard: a nominal phase that shed, completed
// less than it offered, or whose generator lagged beyond maxLagBound did
// not see the offered load, so its latencies are not comparable.
func (r *report) checkNominal(n nominal) {
	var why []string
	if n.shed > 0 {
		why = append(why, fmt.Sprintf("shed %d arrivals", n.shed))
	}
	if n.completed < n.offered {
		why = append(why, fmt.Sprintf("completed %d of %d offered", n.completed, n.offered))
	}
	if n.maxLag > maxLagBound {
		why = append(why, fmt.Sprintf("generator lagged %v (bound %v)", n.maxLag, maxLagBound))
	}
	r.Invalid = append(r.Invalid, why...)
	r.Valid = len(r.Invalid) == 0
	for _, s := range why {
		fmt.Fprintln(os.Stderr, "perfbench: nominal phase not comparable:", s)
	}
}

// summarize records the nominal latency distribution in the report.
func (r *report) summarize(n nominal) {
	r.Nominal = map[string]float64{"count": float64(len(n.latMs)), "max_lag": float64(n.maxLag) / 1e6}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		if v, ok := percentile(n.latMs, q); ok {
			r.Nominal[fmt.Sprintf("p%g", q*100)] = v
		}
	}
	if len(n.latMs) > 0 {
		r.Nominal["max"] = n.latMs[len(n.latMs)-1]
	}
}

// noteSteal records a phase's steal and how many windows it measured.
func (r *report) noteSteal(phase string, stolen []float64, quiet []bool) {
	if r.Steal == nil {
		r.Steal = map[string]float64{}
	}
	kept := 0
	for _, q := range quiet {
		if q {
			kept++
		}
	}
	r.Steal[phase+"_steal_pct"] = 100 * mean(stolen)
	r.Steal[phase+"_windows"] = float64(len(stolen))
	r.Steal[phase+"_windows_measured"] = float64(kept)
}

// account adds a phase's operations to the result: a failed or shed
// arrival counts as failed.
func (r *report) account(n nominal, s saturated) {
	r.Result.Attempted += n.offered + s.attempted
	r.Result.Failed += n.failed + n.shed + s.failed
	for _, err := range []error{n.firstErr, s.firstErr} {
		if err != nil {
			r.Failures = append(r.Failures, "transaction failed: "+err.Error())
		}
	}
}

// oracle records one correctness check.
func (r *report) oracle(name string, err error) {
	if err != nil {
		r.Failures = append(r.Failures, name+": "+err.Error())
		return
	}
	r.Oracles = append(r.Oracles, name+": ok")
}

// emit prints the metric table and the stamped report, writes the report
// to out, and prints the result as the last line. A failed oracle makes
// the exit status non-zero.
func emit(rep report, out string) error {
	names := make([]string, 0, len(rep.Result.Metrics))
	for n, v := range rep.Result.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", rep.Stamp.Params.Name, rep.Stamp.Seed, rep.Stamp.Seconds, rep.Stamp.Trace)
	for _, n := range names {
		v := rep.Result.Metrics[n]
		fmt.Printf("  %-40s %14.6g %s\n", n, v.Value, v.Unit)
	}
	for _, o := range rep.Oracles {
		fmt.Println("  oracle", o)
	}
	for _, f := range rep.Failures {
		fmt.Println("  FAILED", f)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	trace := 0
	if rep.Stamp.Trace {
		trace = 1
	}
	if err := os.WriteFile(filepath.Join(out, fmt.Sprintf("%s.trace%d.json", rep.Stamp.Params.Name, trace)), append(b, '\n'), 0o644); err != nil {
		return err
	}
	b, err = json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	if !rep.Result.Correct {
		return errors.New("an oracle failed: " + rep.Failures[0])
	}
	return nil
}

// writeSpans writes the traced window's spans, one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
