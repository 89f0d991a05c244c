package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"qrdtm/internal/bench"
	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
	"qrdtm/internal/server"
	"qrdtm/internal/wal"
)

// Load shape shared by every workload.
const (
	nodes   = 13 // the paper's cluster
	workers = 8  // most transactions in flight at once, from one process
)

// Transfer workloads: 32 accounts dealt into the 4-way reference buckets
// of the harness's load experiment, 95% of transfers within one bucket
// (one shard).
const (
	refShards         = 4
	accountsPerBucket = 8
	initBalance       = 100
	shardLocality     = 0.95
)

// nested-rbtree: the paper's RBTree step programs and QR-CHK's checkpoint
// granularity.
var rbParams = bench.Params{Objects: 48, Ops: 4, ReadRatio: 0.8}

const checkpointEvery = 4

// workload is one traffic mix of the benchmark.
type workload struct {
	name   string
	shards int // 0 runs the paper's single unsharded tree
	// fsync is the WAL group-commit window; durable replicas only.
	durable bool
	fsync   time.Duration
	rate    float64 // nominal Poisson arrivals per second, never recalibrated
	rbtree  bool
}

var workloads = []workload{
	{name: "transfer-mem", shards: refShards, rate: 750},
	{name: "transfer-wal", shards: refShards, durable: true, fsync: time.Millisecond, rate: 400},
	{name: "nested-rbtree", rate: 100, rbtree: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// deployment is one booted cluster with its client runtimes.
type deployment struct {
	w        workload
	replicas []*server.Replica
	servers  []*cluster.TCPServer
	wals     []*wal.WAL
	walRoot  string
	tcp      *cluster.TCPTransport
	rts      []*core.Runtime
	metrics  *core.Metrics

	// Traced deployments only.
	rec     *recorder
	reg     *obs.Registry // core and server: span buffer and abort causes
	walReg  *obs.Registry
	quorums *quorumStats

	buckets [][]proto.ObjectID // transfer accounts
	rb      *bench.RBTree
}

// boot starts the cluster in-process: it opens the WALs, starts the
// replicas' TCP listeners, loads the objects, builds the worker runtimes
// and dials every replica. Its duration is the set-up time. tmp holds the
// WAL directories.
func boot(ctx context.Context, w workload, tmp string, traced bool) (d *deployment, err error) {
	d = &deployment{w: w, metrics: &core.Metrics{}}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if traced {
		d.rec = newRecorder()
		d.reg = obs.NewRegistry().WithSpans(obs.NewSpanBuffer(1 << 16))
		d.walReg = obs.NewRegistry()
		d.quorums = &quorumStats{}
	}
	var m proto.ShardMap
	if w.shards > 0 {
		all := make([]proto.NodeID, nodes)
		for i := range all {
			all[i] = proto.NodeID(i)
		}
		m = proto.PartitionMap(all, w.shards)
	}
	if w.durable {
		if d.walRoot, err = os.MkdirTemp(tmp, "wal-"); err != nil {
			return d, err
		}
	}

	peers := make(map[proto.NodeID]string, nodes)
	for i := 0; i < nodes; i++ {
		id := proto.NodeID(i)
		r := server.New(id).WithObs(d.reg)
		if w.durable {
			lg, res, err := wal.Open(wal.Options{
				Dir: filepath.Join(d.walRoot, fmt.Sprintf("n%02d", i)), FsyncInterval: w.fsync, Obs: d.walReg,
			})
			if err != nil {
				return d, fmt.Errorf("wal node %d: %w", i, err)
			}
			d.wals = append(d.wals, lg)
			r.WithWAL(lg)
			r.Restore(res)
		}
		if m.Sharded() {
			r.SetShardMap(m)
		}
		h := cluster.Handler(r.Handle)
		if traced {
			h = d.rec.serveHandler(id, h)
		}
		srv, err := cluster.ListenTCP(id, "127.0.0.1:0", h)
		if err != nil {
			return d, fmt.Errorf("listen node %d: %w", i, err)
		}
		d.replicas = append(d.replicas, r)
		d.servers = append(d.servers, srv)
		peers[id] = srv.Addr()
	}
	d.tcp = cluster.NewTCPTransport(peers)

	if w.rbtree {
		d.rb = bench.NewRBTree("rb")
		copies := d.rb.Setup(rbParams, nil)
		for _, r := range d.replicas {
			r.Handle(-1, proto.LoadReq{Objects: copies})
		}
	} else {
		d.buckets = accountBuckets()
		for _, ids := range d.buckets {
			for _, id := range ids {
				spec, _ := m.Shard(m.ShardFor(id))
				load := proto.LoadReq{Objects: []proto.ObjectCopy{{ID: id, Version: 1, Val: proto.Int64(initBalance)}}}
				for _, n := range spec.Members {
					d.replicas[n].Handle(-1, load) // through Handle, so durable replicas log it
				}
			}
		}
	}

	if err := d.buildRuntimes(m, traced); err != nil {
		return d, err
	}
	for i := 0; i < nodes; i++ {
		if _, err := d.tcp.Call(ctx, 0, proto.NodeID(i), proto.DumpReq{}); err != nil {
			return d, fmt.Errorf("dial node %d: %w", i, err)
		}
	}
	return d, nil
}

// buildRuntimes builds one runtime per worker slot over the shared client
// transport. Transfers run root-only transactions under QR-CN; the rbtree
// slots alternate QR-CN and QR-CHK.
func (d *deployment) buildRuntimes(m proto.ShardMap, traced bool) error {
	var trans cluster.Transport = d.tcp
	var qp core.QuorumProvider
	var sp core.ShardProvider
	if m.Sharded() {
		shards := core.TreeShardQuorums{Map: func() (proto.ShardMap, error) { return m, nil }}
		sp = shards
		if traced {
			sp = timedShards{inner: shards, st: d.quorums}
		}
	} else {
		t0 := time.Now()
		tree := core.TreeQuorums{Tree: quorum.NewTree(nodes)}
		qp = tree
		if traced {
			d.quorums.noteBuild(time.Since(t0))
			qp = timedTree{inner: tree, st: d.quorums}
		}
	}
	if traced {
		trans = &tracedTransport{inner: d.tcp, rec: d.rec}
	}
	ids := core.NewIDGen()
	for w := 0; w < workers; w++ {
		mode := core.Closed
		if d.w.rbtree && w%2 == 1 {
			mode = core.Checkpoint
		}
		rt, err := core.NewRuntime(core.Config{
			Node:            proto.NodeID(w % nodes),
			Transport:       trans,
			Quorums:         qp,
			Shards:          sp,
			Mode:            mode,
			IDs:             ids,
			Metrics:         d.metrics,
			Obs:             d.reg,
			CheckpointEvery: checkpointEvery,
		})
		if err != nil {
			return fmt.Errorf("runtime %d: %w", w, err)
		}
		d.rts = append(d.rts, rt)
	}
	return nil
}

// close stops the client transport, the listeners and the WALs, in that
// order, and removes the WAL directories.
func (d *deployment) close() error {
	if d.tcp != nil {
		d.tcp.Close()
	}
	for _, srv := range d.servers {
		_ = srv.Close() // teardown: a listener that fails to close holds nothing the next boot needs
	}
	var errs []error
	for _, lg := range d.wals {
		errs = append(errs, lg.Close())
	}
	if d.walRoot != "" {
		errs = append(errs, os.RemoveAll(d.walRoot))
	}
	return errors.Join(errs...)
}

// txn runs one transaction of the workload on a worker slot, drawing its
// inputs from rng.
func (d *deployment) txn(ctx context.Context, slot int, rng *rand.Rand) error {
	rt := d.rts[slot]
	if d.w.rbtree {
		st, steps := d.rb.NewTxn(rng, rbParams)
		_, err := rt.AtomicSteps(ctx, st, steps)
		return err
	}
	from, to := pickTransfer(rng, d.buckets)
	return rt.Atomic(ctx, func(tx *core.Txn) error {
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
}

// accountBuckets deals account names into the reference buckets: scanning
// names upward, bucket b takes the first accountsPerBucket names whose slot
// is congruent to b modulo refShards, so each bucket lies in one shard.
func accountBuckets() [][]proto.ObjectID {
	buckets := make([][]proto.ObjectID, refShards)
	for i, filled := 0, 0; filled < refShards; i++ {
		id := proto.ObjectID(fmt.Sprintf("acct/%04d", i))
		b := proto.SlotOf(id) % refShards
		if len(buckets[b]) == accountsPerBucket {
			continue
		}
		buckets[b] = append(buckets[b], id)
		if len(buckets[b]) == accountsPerBucket {
			filled++
		}
	}
	return buckets
}

// pickTransfer draws two distinct accounts: from one bucket with
// probability shardLocality, else from two different buckets.
func pickTransfer(rng *rand.Rand, buckets [][]proto.ObjectID) (from, to proto.ObjectID) {
	if rng.Float64() < shardLocality {
		b := buckets[rng.IntN(len(buckets))]
		i := rng.IntN(len(b))
		j := rng.IntN(len(b) - 1)
		if j >= i {
			j++
		}
		return b[i], b[j]
	}
	bi := rng.IntN(len(buckets))
	bj := rng.IntN(len(buckets) - 1)
	if bj >= bi {
		bj++
	}
	return buckets[bi][rng.IntN(len(buckets[bi]))], buckets[bj][rng.IntN(len(buckets[bj]))]
}

// latest resolves an object through the highest version any replica holds.
func (d *deployment) latest(id proto.ObjectID) (proto.Value, bool) {
	var best proto.ObjectCopy
	for _, r := range d.replicas {
		if cp, ok := r.Store().Get(id); ok && cp.Version >= best.Version {
			best = cp
		}
	}
	return best.Val, best.Val != nil
}

// verify runs the workload's oracle on the highest-versioned copies: money
// is conserved across transfers, and the red-black tree keeps every
// invariant.
func (d *deployment) verify() error {
	if d.w.rbtree {
		return d.rb.Verify(rbParams, d.latest)
	}
	var total, count int64
	for _, b := range d.buckets {
		for _, id := range b {
			v, ok := d.latest(id)
			if !ok {
				return fmt.Errorf("conservation: account %s vanished", id)
			}
			total += int64(v.(proto.Int64))
			count++
		}
	}
	if total != count*initBalance {
		return fmt.Errorf("conservation violated: total %d, want %d", total, count*initBalance)
	}
	return nil
}
