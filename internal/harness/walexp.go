package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
	"qrdtm/internal/server"
	"qrdtm/internal/wal"
)

// BenchWALPath is where the WAL experiment writes its machine-readable
// output ("" disables the file; cmd/qr-bench exposes it as -wal-out).
var BenchWALPath = "BENCH_wal.json"

// walRecord is one cell's row in BENCH_wal.json: the bank-transfer workload
// over a real localhost TCP cluster, with replicas either in-memory or
// durable at one group-commit fsync interval (the minimum spacing between
// two of a log's fsyncs).
type walRecord struct {
	Durability  string  `json:"durability"` // "mem" or "wal"
	FsyncMs     float64 `json:"fsync_interval_ms"`
	Nodes       int     `json:"nodes"`
	Clients     int     `json:"clients"`
	Commits     uint64  `json:"commits"`
	Throughput  float64 `json:"txn_per_sec"`
	CommitP50Ms float64 `json:"commit_p50_ms"`
	CommitP99Ms float64 `json:"commit_p99_ms"`
	Fsyncs      int64   `json:"fsyncs"`
	FsyncPerTxn float64 `json:"fsyncs_per_txn"`
	LogBytes    int64   `json:"log_bytes"`
	Verified    bool    `json:"verified"`
}

// walArtifact is the whole of BENCH_wal.json: the host the run came from
// and one row per cell.
type walArtifact struct {
	Host  hostStamp   `json:"host"`
	Cells []walRecord `json:"cells"`
}

// hostStamp records where a measurement ran, so numbers from different
// machines are never compared as if they were one.
type hostStamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
}

func newHostStamp() hostStamp {
	h := hostStamp{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// walCell names one durability configuration.
type walCell struct {
	label   string
	durable bool
	fsync   time.Duration
}

// WALCost prices durability: the same seeded transfer workload over real
// TCP with replicas running in-memory versus logging every prepare/decide
// to a group-committed WAL, at several fsync intervals. The interval is the
// paced group commit's minimum spacing between fsyncs: an idle log flushes
// at once, a busy one shares each fsync across every append staged within
// the interval. The in-memory cell is the baseline the README's durability
// table is measured against; the interval sweep shows group commit
// amortizing fsyncs across concurrent commits (fsyncs/txn falls as the
// interval widens). Every cell must end balance-conserving — durable or
// not, the protocol invariant is the same.
func WALCost(ctx context.Context, s Scale) ([]Table, error) {
	t := Table{
		ID:     "wal",
		Title:  "durable commit cost: group-committed WAL vs in-memory (real TCP)",
		Header: []string{"durability", "fsync interval", "txn/s", "commit p50 ms", "commit p99 ms", "fsyncs/txn", "log MiB", "verified"},
	}
	cells := []walCell{
		{label: "mem", durable: false},
		{label: "wal", durable: true, fsync: 0},
		{label: "wal", durable: true, fsync: time.Millisecond},
		{label: "wal", durable: true, fsync: 5 * time.Millisecond},
	}
	var records []walRecord
	for _, c := range cells {
		rec, err := runWALCell(ctx, s, c)
		if err != nil {
			return nil, fmt.Errorf("wal cell %s/%v: %w", c.label, c.fsync, err)
		}
		records = append(records, rec)
		window := "-"
		if c.durable {
			window = c.fsync.String()
		}
		t.Rows = append(t.Rows, []string{
			rec.Durability, window,
			f1(rec.Throughput),
			fmt.Sprintf("%.2f", rec.CommitP50Ms), fmt.Sprintf("%.2f", rec.CommitP99Ms),
			fmt.Sprintf("%.2f", rec.FsyncPerTxn),
			fmt.Sprintf("%.2f", float64(rec.LogBytes)/(1<<20)),
			fmt.Sprint(rec.Verified),
		})
	}
	if BenchWALPath != "" {
		b, err := json.MarshalIndent(walArtifact{Host: newHostStamp(), Cells: records}, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("wal: encoding %s: %w", BenchWALPath, err)
		}
		if err := os.WriteFile(BenchWALPath, append(b, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("wal: writing %s: %w", BenchWALPath, err)
		}
	}
	return []Table{t}, nil
}

// runWALCell runs one durability cell: an n-node localhost TCP cluster
// (each replica on its own WAL directory when durable), Scale's client
// count running the transfer workload to completion.
func runWALCell(ctx context.Context, s Scale, cell walCell) (walRecord, error) {
	const initBalance = 100
	nodes, clients, txns := s.Nodes, s.Clients, s.Txns
	accounts := 2 * clients

	replicas := make([]*server.Replica, nodes)
	servers := make([]*cluster.TCPServer, nodes)
	wals := make([]*wal.WAL, nodes)
	peers := make(map[proto.NodeID]string, nodes)
	defer func() {
		for _, srv := range servers {
			if srv != nil {
				_ = srv.Close()
			}
		}
		for _, w := range wals {
			if w != nil {
				_ = w.Close()
			}
		}
	}()
	for i := 0; i < nodes; i++ {
		replicas[i] = server.New(proto.NodeID(i))
		if cell.durable {
			dir, err := os.MkdirTemp("", "qrdtm-walbench-")
			if err != nil {
				return walRecord{}, err
			}
			defer os.RemoveAll(dir)
			w, res, err := wal.Open(wal.Options{Dir: dir, FsyncInterval: cell.fsync})
			if err != nil {
				return walRecord{}, fmt.Errorf("wal node %d: %w", i, err)
			}
			wals[i] = w
			replicas[i].WithWAL(w)
			replicas[i].Restore(res)
		}
		srv, err := cluster.ListenTCP(proto.NodeID(i), "127.0.0.1:0", replicas[i].Handle)
		if err != nil {
			return walRecord{}, fmt.Errorf("listen node %d: %w", i, err)
		}
		servers[i] = srv
		peers[proto.NodeID(i)] = srv.Addr()
	}
	tr := cluster.NewTCPTransport(peers)
	defer tr.Close()

	copies := make([]proto.ObjectCopy, accounts)
	for i := range copies {
		copies[i] = proto.ObjectCopy{
			ID: proto.ObjectID(fmt.Sprintf("acct/%d", i)), Version: 1, Val: proto.Int64(initBalance),
		}
	}
	for _, r := range replicas {
		r.Handle(-1, proto.LoadReq{Objects: copies}) // via Handle so durable cells log the load
	}

	tree := quorum.NewTree(nodes)
	ids := core.NewIDGen()
	reg := obs.NewRegistry()
	metrics := &core.Metrics{}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rt, err := core.NewRuntime(core.Config{
				Node:      proto.NodeID(c % nodes),
				Transport: tr,
				Quorums:   core.TreeQuorums{Tree: tree},
				Mode:      core.Closed,
				IDs:       ids,
				Metrics:   metrics,
				Obs:       reg,
			})
			if err != nil {
				errs[c] = err
				return
			}
			rng := rand.New(rand.NewPCG(s.Seed, uint64(c)))
			for i := 0; i < txns; i++ {
				from := proto.ObjectID(fmt.Sprintf("acct/%d", rng.IntN(accounts)))
				to := proto.ObjectID(fmt.Sprintf("acct/%d", rng.IntN(accounts)))
				if from == to {
					continue
				}
				err := rt.Atomic(ctx, func(tx *core.Txn) error {
					fv, err := tx.Read(from)
					if err != nil {
						return err
					}
					tv, err := tx.Read(to)
					if err != nil {
						return err
					}
					if err := tx.Write(from, proto.Int64(int64(fv.(proto.Int64))-1)); err != nil {
						return err
					}
					return tx.Write(to, proto.Int64(int64(tv.(proto.Int64))+1))
				})
				if err != nil {
					errs[c] = fmt.Errorf("client %d txn %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return walRecord{}, err
		}
	}

	// Conservation oracle, as in the wire experiment: resolve each account
	// through the highest version any replica holds.
	total := int64(0)
	for i := 0; i < accounts; i++ {
		var best proto.ObjectCopy
		for _, r := range replicas {
			if cp, ok := r.Store().Get(proto.ObjectID(fmt.Sprintf("acct/%d", i))); ok && cp.Version >= best.Version {
				best = cp
			}
		}
		total += int64(best.Val.(proto.Int64))
	}
	if total != int64(accounts*initBalance) {
		return walRecord{}, fmt.Errorf("conservation violated: total = %d, want %d", total, accounts*initBalance)
	}

	var fsyncs, logBytes int64
	for _, w := range wals {
		if w != nil {
			fsyncs += w.Fsyncs()
			logBytes += w.LogBytes()
		}
	}
	snap := reg.Snapshot()
	commit := snap.Hists[obs.SiteCommitRTT].Stats()
	commits := metrics.Commits.Load()
	rec := walRecord{
		Durability:  cell.label,
		FsyncMs:     float64(cell.fsync) / float64(time.Millisecond),
		Nodes:       nodes,
		Clients:     clients,
		Commits:     commits,
		Throughput:  float64(commits) / elapsed.Seconds(),
		CommitP50Ms: commit.P50Ms,
		CommitP99Ms: commit.P99Ms,
		Fsyncs:      fsyncs,
		LogBytes:    logBytes,
		Verified:    true,
	}
	if commits > 0 {
		rec.FsyncPerTxn = float64(fsyncs) / float64(commits)
	}
	return rec, nil
}
