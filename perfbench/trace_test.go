package main

import (
	"context"
	"testing"

	"qrdtm/internal/cluster"
	"qrdtm/internal/proto"
)

// The decorator must keep the multicast fast path: cluster.Multicast only
// encodes a request once when the transport is a MultiCaller.
var _ cluster.MultiCaller = (*tracedTransport)(nil)

// fakeMux answers every leg and counts how it was called.
type fakeMux struct{ calls, many int }

func (f *fakeMux) Call(_ context.Context, _, _ proto.NodeID, req any) (any, error) {
	f.calls++
	return proto.BatchReadRep{OK: true}, nil
}

func (f *fakeMux) CallMany(_ context.Context, _ proto.NodeID, nodes []proto.NodeID, req any) []cluster.Reply {
	f.many++
	out := make([]cluster.Reply, len(nodes))
	for i, n := range nodes {
		out[i] = cluster.Reply{Node: n, Resp: proto.PrepareRep{OK: true}}
	}
	return out
}

func TestTracedTransportForwardsAndRecords(t *testing.T) {
	rec := newRecorder()
	inner := &fakeMux{}
	tr := &tracedTransport{inner: inner, rec: rec}
	err := rec.txn(context.Background(), 7, func(ctx context.Context) error {
		replies := cluster.Multicast(ctx, tr, 0, []proto.NodeID{1, 2, 3}, proto.PrepareReq{Txn: 42})
		if len(replies) != 3 {
			t.Errorf("multicast returned %d replies, want 3", len(replies))
		}
		_, err := tr.Call(ctx, 0, 1, proto.BatchReadReq{Txn: 42})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if inner.many != 1 || inner.calls != 1 {
		t.Fatalf("inner saw %d CallMany and %d Call, want 1 and 1", inner.many, inner.calls)
	}
	spans := rec.take()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	var txn span
	for _, s := range spans {
		if s.Name == "core.txn" {
			txn = s
		}
	}
	for _, s := range spans {
		if s.Rid != 7 {
			t.Errorf("span %s has rid %d, want 7", s.Name, s.Rid)
		}
		if s.Name != "core.txn" && s.Parent != txn.ID {
			t.Errorf("span %s has parent %d, want the txn span %d", s.Name, s.Parent, txn.ID)
		}
	}
	if got := len(rec.samples["prepare"]) + len(rec.samples["prepare_rep"]) + len(rec.samples["batch_read"]); got != 3 {
		t.Fatalf("sampled %d messages, want 3 (first of each kind)", got)
	}
}

func TestServeHandlerRecordsDenials(t *testing.T) {
	rec := newRecorder()
	h := rec.serveHandler(4, func(_ proto.NodeID, req any) any {
		if _, ok := req.(proto.PrepareReq); ok {
			return proto.PrepareRep{OK: false}
		}
		return proto.DumpRep{}
	})
	h(0, proto.PrepareReq{Txn: 9})
	h(0, proto.DumpReq{}) // not a protocol kind: passes through unrecorded
	spans := rec.take()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "server.prepare" || s.Txn != 9 || !s.Denied || s.Nodes[0] != 4 {
		t.Fatalf("serve span = %+v, want a denied server.prepare of txn 9 at node 4", s)
	}
}
