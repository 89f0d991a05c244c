package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"qrdtm/internal/core"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's named values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// pct reports the q-quantile of xs, or -1 (with a warning) when too few
// samples lie beyond it for the percentile to mean anything.
func (m metrics) pct(name string, xs []float64, q float64, unit string) {
	m.quantile(name, xs, q, unit, percentile)
}

func (m metrics) quantile(name string, xs []float64, q float64, unit string, est func([]float64, float64) (float64, bool)) {
	v, ok := est(xs, q)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d samples cannot support the %g quantile; reporting -1\n", name, len(xs), q)
		v = -1
	}
	m.set(name, v, unit)
}

// counters are the cumulative layer counters read at a window's edges.
type counters struct {
	core     core.MetricsSnapshot
	aborts   map[string]uint64
	bytes    uint64
	fsyncs   int64
	logBytes int64
}

func (d *deployment) counters() counters {
	c := counters{core: d.metrics.Snapshot(), aborts: d.reg.AbortCounts(), bytes: d.tcp.Stats().Bytes}
	for _, lg := range d.wals {
		c.fsyncs += lg.Fsyncs()
		c.logBytes += lg.LogBytes()
	}
	return c
}

// tracedWindow is everything the traced phase left to compute the
// per-layer metrics from.
type tracedWindow struct {
	before, after counters
	spans         []span
	wall          time.Duration
	gen           nominal
	refP50        float64 // untraced nominal p50, ms
	check         obs.CheckResult
	phases        obs.PhaseDecomposition
	codec         map[string]codecCost
}

// joinKey finds the serve span a client call leg caused: the request's
// kind and transaction at one replica.
type joinKey struct {
	kind string
	txn  uint64
	node proto.NodeID
}

// layerMetrics computes every per-layer metric of a traced window. It also
// stamps the joined server spans with the rid and parent of the call that
// caused them.
func layerMetrics(d *deployment, tw tracedWindow) metrics {
	m := metrics{}
	commits := float64(tw.after.core.Commits - tw.before.core.Commits)
	perCommit := func(n float64) float64 {
		if commits == 0 {
			return 0
		}
		return n / commits
	}

	serves := map[joinKey][]*span{}
	children := map[uint64][]interval{}
	var txns []*span
	for i := range tw.spans {
		s := &tw.spans[i]
		switch s.Name {
		case "core.txn":
			txns = append(txns, s)
		case "server." + kindRead, "server." + kindPrepare, "server." + kindDecide:
			k := joinKey{s.Name[len("server."):], s.Txn, s.Nodes[0]}
			serves[k] = append(serves[k], s)
		}
	}

	// cluster: calls, legs, and the wire share of each call.
	callUs := map[string][]float64{}
	netUs := map[string][]float64{}
	legs := map[string]float64{}
	failed := 0
	for i := range tw.spans {
		c := &tw.spans[i]
		kind, ok := clusterKind(c.Name)
		if !ok {
			continue
		}
		children[c.Parent] = append(children[c.Parent], interval{c.Start, c.End})
		callUs[kind] = append(callUs[kind], float64(c.dur())/1e3)
		legs[kind] += float64(len(c.Nodes))
		failed += c.Failed
		var legServes []time.Duration
		for _, n := range c.Nodes {
			for _, s := range serves[joinKey{kind, c.Txn, n}] {
				if s.Rid == 0 && s.Start >= c.Start && s.End <= c.End {
					s.Rid, s.Parent = c.Rid, c.ID
					legServes = append(legServes, s.dur())
					break
				}
			}
		}
		if len(legServes) > 0 {
			netUs[kind] = append(netUs[kind], float64(netSelf(c.dur(), legServes))/1e3)
		}
	}

	// core
	var txnMs, selfMs []float64
	for _, t := range txns {
		txnMs = append(txnMs, float64(t.dur())/1e6)
		selfMs = append(selfMs, float64(selfTime(t.Start, t.End, children[t.ID]))/1e6)
	}
	m.pct("core.txn_ms.p50", txnMs, 0.50, "ms")
	m.pct("core.txn_ms.p99", txnMs, 0.99, "ms")
	m.set("core.self_ms.mean", mean(selfMs), "ms")
	b, a := tw.before.core, tw.after.core
	m.set("core.attempts_per_commit", perCommit(commits+float64(a.RootAborts-b.RootAborts)), "count")
	m.set("core.ct_aborts_per_commit", perCommit(float64(a.CTAborts-b.CTAborts)), "count")
	m.set("core.chk_rollbacks_per_commit", perCommit(float64(a.ChkRollbacks-b.ChkRollbacks)), "count")
	for _, cause := range []obs.AbortCause{obs.CauseReadValidation, obs.CauseLockDenied, obs.CauseCommitConflict, obs.CauseNodeDown} {
		n := cause.String()
		m.set("core.abort."+n, perCommit(float64(tw.after.aborts[n]-tw.before.aborts[n])), "count")
	}

	// cluster
	for _, k := range kinds {
		m.set("cluster.calls_per_commit."+k, perCommit(legs[k]), "count")
		m.pct("cluster.call_us."+k+".p50", callUs[k], 0.50, "us")
		m.pct("cluster.call_us."+k+".p99", callUs[k], 0.99, "us")
		m.set("cluster.net_self_us."+k, mean(netUs[k]), "us")
	}
	m.set("cluster.bytes_per_commit", perCommit(float64(tw.after.bytes-tw.before.bytes)), "B")
	m.set("cluster.failed_calls_per_commit", perCommit(float64(failed)), "count")

	// proto
	for _, name := range codecNames {
		c := tw.codec[name]
		m.set("proto.bytes."+name, c.bytes, "B")
		m.set("proto.encode_ns."+name, c.encodeNs, "ns")
		m.set("proto.decode_ns."+name, c.decodeNs, "ns")
		m.set("proto.allocs."+name, c.allocs, "count")
	}

	// server
	serveUs := map[string][]float64{}
	denied := map[string]int{}
	var busy time.Duration
	for _, list := range serves {
		for _, s := range list {
			k := s.Name[len("server."):]
			serveUs[k] = append(serveUs[k], float64(s.dur())/1e3)
			busy += s.dur()
			if s.Denied {
				denied[k]++
			}
		}
	}
	for _, k := range kinds {
		m.pct("server.serve_us."+k+".p50", serveUs[k], 0.50, "us")
		m.pct("server.serve_us."+k+".p99", serveUs[k], 0.99, "us")
	}
	m.set("server.busy_frac", float64(busy)/(float64(tw.wall)*float64(runtime.GOMAXPROCS(0))), "ratio")
	frac := func(n int, of []float64) float64 {
		if len(of) == 0 {
			return 0
		}
		return float64(n) / float64(len(of))
	}
	m.set("server.prepare_denied_frac", frac(denied[kindPrepare], serveUs[kindPrepare]), "ratio")
	m.set("server.read_abort_frac", frac(denied[kindRead], serveUs[kindRead]), "ratio")

	// wal
	m.set("wal.fsyncs_per_commit", perCommit(float64(tw.after.fsyncs-tw.before.fsyncs)), "count")
	m.set("wal.bytes_per_commit", perCommit(float64(tw.after.logBytes-tw.before.logBytes)), "B")
	fsync := d.walReg.Hist(obs.SiteWALFsync).Snapshot()
	for _, q := range []struct {
		name string
		q    float64
	}{{"wal.fsync_ms.p50", 0.50}, {"wal.fsync_ms.p99", 0.99}} {
		v := 0.0
		if fsync.Count > 0 {
			v = -1
			if float64(fsync.Count)*(1-q.q) >= minTail {
				v = float64(fsync.Quantile(q.q)) / 1e6
			}
		}
		m.set(q.name, v, "ms")
	}

	// quorum
	qs := d.quorums
	m.set("quorum.read_size", float64(qs.readSum)/float64(max(qs.calls, 1)), "count")
	m.set("quorum.write_size", float64(qs.writeSum)/float64(max(qs.calls, 1)), "count")
	m.set("quorum.build_us", float64(qs.buildNs)/1e3, "us")

	// load generator and trace
	m.set("load.max_lag_ms", float64(tw.gen.maxLag)/1e6, "ms")
	m.set("load.queued_frac", float64(tw.gen.queued)/float64(max(tw.gen.offered, 1)), "ratio")
	tracedP50 := median(tw.gen.latMs)
	overhead := 0.0
	if tw.refP50 > 0 {
		overhead = tracedP50/tw.refP50 - 1
	}
	m.set("trace.overhead_p50_frac", overhead, "ratio")
	m.set("trace.violations", float64(len(tw.check.Violations)), "count")
	for _, name := range obs.PhaseNames {
		var xs []float64
		for _, bd := range tw.phases.Commits {
			xs = append(xs, float64(bd.Phase(name))/1e6)
		}
		m.set("phase."+name+"_ms", mean(xs), "ms")
	}
	return m
}

// clusterKind returns the message kind of a cluster call span.
func clusterKind(name string) (string, bool) {
	for _, k := range kinds {
		if name == "cluster."+k {
			return k, true
		}
	}
	return "", false
}
