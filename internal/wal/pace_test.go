package wal

import (
	"sync"
	"testing"
	"time"

	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
)

// waitStaged polls until the log has staged records up to index last.
func waitStaged(t *testing.T, w *WAL, last uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.LastIndex() < last {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d records staged", w.LastIndex(), last)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPacedIdleAppendImmediate: a log that has not flushed for a whole
// interval writes a lone append at once instead of sleeping the interval.
func TestPacedIdleAppendImmediate(t *testing.T) {
	w, _ := openT(t, t.TempDir(), Options{FsyncInterval: 200 * time.Millisecond})
	defer w.Close()
	start := time.Now()
	if err := w.Append(KindCursor, Cursor{Peer: 1, Index: 1}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 50*time.Millisecond {
		t.Fatalf("idle append took %v with a 200ms interval; want an immediate flush", d)
	}
	if f := w.Fsyncs(); f != 1 {
		t.Fatalf("Fsyncs = %d, want 1", f)
	}
}

// TestPacedBurstCapsFsyncs: under a concurrent burst, flushes start at
// least one interval apart, so they number at most elapsed/interval + 1,
// and each carries more than one append.
func TestPacedBurstCapsFsyncs(t *testing.T) {
	const interval = 20 * time.Millisecond
	w, _ := openT(t, t.TempDir(), Options{FsyncInterval: interval})
	defer w.Close()
	const workers, each = 16, 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*each)
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				errs <- w.Append(KindCursor, Cursor{Peer: proto.NodeID(g), Index: uint64(i)})
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent append: %v", err)
		}
	}
	f := w.Fsyncs()
	if limit := int64(elapsed/interval) + 1; f > limit {
		t.Fatalf("%d fsyncs in %v at a %v interval; pacing allows at most %d", f, elapsed, interval, limit)
	}
	if total := int64(workers * each); f >= total {
		t.Fatalf("no batching: %d fsyncs for %d appends", f, total)
	}
}

// TestCloseCutsPacedWait: Close during a paced wait flushes the staged
// batch at once, and a reopen replays every record in index order.
func TestCloseCutsPacedWait(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{FsyncInterval: time.Hour})
	// The idle log flushes this one at once; the next batch then waits out
	// the hour.
	if err := w.Append(KindCursor, Cursor{Peer: 0, Index: 0}); err != nil {
		t.Fatal(err)
	}
	const staged = 8
	errs := make(chan error, staged)
	for g := 1; g <= staged; g++ {
		go func(g int) { errs <- w.Append(KindCursor, Cursor{Peer: proto.NodeID(g), Index: uint64(g)}) }(g)
	}
	waitStaged(t, w, staged+1)
	start := time.Now()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v during a paced wait", d)
	}
	for i := 0; i < staged; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("append staged before Close: %v", err)
		}
	}
	w2, res := openT(t, dir, Options{})
	defer w2.Close()
	if len(res.Records) != staged+1 {
		t.Fatalf("replayed %d records, want %d", len(res.Records), staged+1)
	}
	for i, rec := range res.Records {
		if rec.Index != uint64(i+1) {
			t.Fatalf("record %d has index %d (order lost)", i, rec.Index)
		}
	}
}

// TestSnapshotCheckSkipsIOLock: an append's snapshot check must not wait
// on ioMu, which the flusher holds through another batch's write+fsync.
func TestSnapshotCheckSkipsIOLock(t *testing.T) {
	w, _ := openT(t, t.TempDir(), Options{SnapshotEvery: 1 << 20})
	defer w.Close()
	if err := w.Append(KindCursor, Cursor{Peer: 1, Index: 1}); err != nil {
		t.Fatal(err)
	}
	w.ioMu.Lock() // as an in-flight flush does
	done := make(chan struct{})
	go func() {
		w.maybeSnapshot()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("maybeSnapshot blocked on ioMu")
	}
	w.ioMu.Unlock()
}

// TestSnapshotFlushObserved: a Snapshot that flushes staged appends counts
// and times its fsync exactly as the flusher does.
func TestSnapshotFlushObserved(t *testing.T) {
	reg := obs.NewRegistry()
	w, _ := openT(t, t.TempDir(), Options{FsyncInterval: time.Hour, Obs: reg})
	defer w.Close()
	w.SetSnapshotSource(func() (SnapshotState, error) { return SnapshotState{}, nil })
	if err := w.Append(KindCursor, Cursor{Peer: 1, Index: 1}); err != nil {
		t.Fatal(err)
	}
	// The flusher now waits out the hour, so this append stays staged
	// until the Snapshot flushes it.
	errc := make(chan error, 1)
	go func() { errc <- w.Append(KindCursor, Cursor{Peer: 2, Index: 2}) }()
	waitStaged(t, w, 2)
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("append flushed by Snapshot: %v", err)
	}
	if f := w.Fsyncs(); f != 2 {
		t.Fatalf("Fsyncs = %d, want 2 (idle flush + snapshot flush)", f)
	}
	if n := reg.Hist(obs.SiteWALFsync).Snapshot().Count; int64(n) != w.Fsyncs() {
		t.Fatalf("%s histogram holds %d samples for %d fsyncs", obs.SiteWALFsync, n, w.Fsyncs())
	}
	if fl := w.Floor(); fl != 2 {
		t.Fatalf("Floor = %d, want 2", fl)
	}
}
