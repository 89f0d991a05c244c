package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/proto"
)

// The traced run measures each layer from outside: it wraps the calls the
// benchmark makes into core (Runtime.Atomic/AtomicSteps), cluster (the
// Transport handed to core.Config), server (the Handler passed to
// ListenTCP) and quorum (the providers handed to core.Config), and records
// a span at each boundary. Nothing inside the program is instrumented.

// Message kinds the boundary spans are keyed by.
const (
	kindRead    = "read"
	kindPrepare = "prepare"
	kindDecide  = "decide"
)

var kinds = []string{kindRead, kindPrepare, kindDecide}

// msgKind classifies a protocol request and returns its transaction id;
// ok is false for every other message (dial probes, loads, dumps).
func msgKind(req any) (kind string, txn proto.TxnID, ok bool) {
	switch m := req.(type) {
	case proto.BatchReadReq:
		return kindRead, m.Txn, true
	case proto.ReadReq:
		return kindRead, m.Txn, true
	case proto.PrepareReq:
		return kindPrepare, m.Txn, true
	case proto.DecideReq:
		return kindDecide, m.Txn, true
	}
	return "", 0, false
}

// span is one recorded boundary crossing. Every span of one request shares
// Rid; Parent is the span that caused it (0 for a request's root span).
// Server spans are recorded without a context and get their Rid and Parent
// when they are joined to the client call that carried their TxnID.
type span struct {
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent"`
	Rid    uint64         `json:"rid"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Txn    uint64         `json:"txn,omitempty"`
	Nodes  []proto.NodeID `json:"nodes,omitempty"` // legs of a cluster call; the serving replica of a server span
	Failed int            `json:"failed,omitempty"`
	Denied bool           `json:"denied,omitempty"` // server: the replica refused the read or prepare
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory for the traced run and samples protocol
// messages for codec replay.
type recorder struct {
	base   time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	sampleMu sync.Mutex
	seen     map[string]int
	samples  map[string][]any
}

// sampleCap bounds the messages kept per kind for codec replay; sampleEvery
// spreads them over the run instead of taking only its first messages.
const (
	sampleCap   = 256
	sampleEvery = 16
)

func newRecorder() *recorder {
	return &recorder{base: time.Now(), seen: map[string]int{}, samples: map[string][]any{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh window.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// sample keeps every sampleEvery-th message of each kind codec replay
// covers, up to sampleCap.
func (r *recorder) sample(msg any) {
	name := codecName(msg)
	if name == "" {
		return
	}
	r.sampleMu.Lock()
	defer r.sampleMu.Unlock()
	n := r.seen[name]
	r.seen[name] = n + 1
	if n%sampleEvery == 0 && len(r.samples[name]) < sampleCap {
		r.samples[name] = append(r.samples[name], msg)
	}
}

// reqCtx rides in the context of one request: its id and the span the
// next boundary crossing should name as parent.
type reqCtx struct{ rid, parent uint64 }

type reqKey struct{}

// txn runs one transaction under a core.txn span.
func (r *recorder) txn(ctx context.Context, rid uint64, run func(context.Context) error) error {
	id := r.nextID.Add(1)
	ctx = context.WithValue(ctx, reqKey{}, reqCtx{rid: rid, parent: id})
	start := r.now()
	err := run(ctx)
	r.add(span{ID: id, Rid: rid, Name: "core.txn", Start: start, End: r.now()})
	return err
}

// muxTransport is what the decorator wraps: the TCP transport, which
// serializes a multicast once (cluster.MultiCaller).
type muxTransport interface {
	cluster.Transport
	cluster.MultiCaller
}

// tracedTransport is a forwarding decorator on the client transport. It
// forwards CallMany as CallMany, so the traced run keeps the encode-once
// multicast path the untraced run uses.
type tracedTransport struct {
	inner muxTransport
	rec   *recorder
}

func (t *tracedTransport) Call(ctx context.Context, from, to proto.NodeID, req any) (any, error) {
	kind, txn, ok := msgKind(req)
	if !ok {
		return t.inner.Call(ctx, from, to, req)
	}
	start := t.rec.now()
	resp, err := t.inner.Call(ctx, from, to, req)
	failed := 0
	if err != nil {
		failed = 1
	}
	t.record(ctx, kind, txn, []proto.NodeID{to}, start, failed)
	t.rec.sample(req)
	if err == nil {
		t.rec.sample(resp)
	}
	return resp, err
}

func (t *tracedTransport) CallMany(ctx context.Context, from proto.NodeID, nodes []proto.NodeID, req any) []cluster.Reply {
	kind, txn, ok := msgKind(req)
	if !ok {
		return t.inner.CallMany(ctx, from, nodes, req)
	}
	start := t.rec.now()
	replies := t.inner.CallMany(ctx, from, nodes, req)
	failed := 0
	for _, rep := range replies {
		if rep.Err != nil {
			failed++
		}
	}
	t.record(ctx, kind, txn, append([]proto.NodeID(nil), nodes...), start, failed)
	t.rec.sample(req)
	for _, rep := range replies {
		if rep.Err == nil {
			t.rec.sample(rep.Resp)
			break
		}
	}
	return replies
}

func (t *tracedTransport) record(ctx context.Context, kind string, txn proto.TxnID, nodes []proto.NodeID, start int64, failed int) {
	rc, _ := ctx.Value(reqKey{}).(reqCtx)
	t.rec.add(span{
		ID: t.rec.nextID.Add(1), Parent: rc.parent, Rid: rc.rid,
		Name: "cluster." + kind, Start: start, End: t.rec.now(),
		Txn: uint64(txn), Nodes: nodes, Failed: failed,
	})
}

// serveHandler wraps a replica's Handle for ListenTCP, recording a
// server.<kind> span per protocol request it serves.
func (r *recorder) serveHandler(node proto.NodeID, h cluster.Handler) cluster.Handler {
	return func(from proto.NodeID, req any) any {
		kind, txn, ok := msgKind(req)
		if !ok {
			return h(from, req)
		}
		start := r.now()
		resp := h(from, req)
		end := r.now()
		denied := false
		switch m := resp.(type) {
		case proto.BatchReadRep:
			denied = !m.OK && !m.NeedFull
		case proto.ReadRep:
			denied = !m.OK
		case proto.PrepareRep:
			denied = !m.OK
		}
		r.add(span{
			ID: r.nextID.Add(1), Name: "server." + kind, Start: start, End: end,
			Txn: uint64(txn), Nodes: []proto.NodeID{node}, Denied: denied,
		})
		return resp
	}
}

// quorumStats accumulates what the quorum providers returned and how long
// each resolution took.
type quorumStats struct {
	mu                sync.Mutex
	calls             int
	readSum, writeSum int
	buildNs           int64 // tree construction plus every resolution
}

func (q *quorumStats) note(read, write []proto.NodeID, took time.Duration) {
	q.mu.Lock()
	q.calls++
	q.readSum += len(read)
	q.writeSum += len(write)
	q.buildNs += int64(took)
	q.mu.Unlock()
}

func (q *quorumStats) noteBuild(took time.Duration) {
	q.mu.Lock()
	q.buildNs += int64(took)
	q.mu.Unlock()
}

// timedTree resolves tree quorums for the unsharded cluster; every
// resolution builds its quorums from the tree.
type timedTree struct {
	inner core.TreeQuorums
	st    *quorumStats
}

func (t timedTree) Quorums(node proto.NodeID) ([]proto.NodeID, []proto.NodeID, error) {
	t0 := time.Now()
	r, w, err := t.inner.Quorums(node)
	t.st.note(r, w, time.Since(t0))
	return r, w, err
}

// timedShards resolves per-shard quorums; every resolution constructs the
// shard's quorum group.
type timedShards struct {
	inner core.TreeShardQuorums
	st    *quorumStats
}

func (t timedShards) ShardMap() (proto.ShardMap, error) { return t.inner.ShardMap() }

func (t timedShards) ShardQuorums(node proto.NodeID, spec proto.ShardSpec) ([]proto.NodeID, []proto.NodeID, error) {
	t0 := time.Now()
	r, w, err := t.inner.ShardQuorums(node, spec)
	t.st.note(r, w, time.Since(t0))
	return r, w, err
}
