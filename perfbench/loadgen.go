package main

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// RNG streams derived from the seed: the arrival schedule, each arrival's
// inputs, and each closed-loop client's inputs never share a stream.
const (
	streamSchedule = 1 << 40
	streamClient   = 1 << 41
)

// queueCap bounds the arrivals waiting for a worker slot; an arrival that
// finds the queue full is shed. It holds over a second of arrivals at every
// nominal rate, so only a collapse sheds.
const queueCap = 1024

// maxLagBound is the dispatcher lag beyond which a nominal phase is flagged
// as not comparable: arrivals left that much later than scheduled.
const maxLagBound = 50 * time.Millisecond

// txnFunc runs one transaction on a worker slot with inputs drawn from
// rng; rid identifies the request in a traced run.
type txnFunc func(ctx context.Context, slot int, rid uint64, rng *rand.Rand) error

// schedule returns the Poisson arrival offsets covering warmup+dur. It is
// a pure function of (seed, rate): both sides of an A/B see the same
// arrivals.
func schedule(seed uint64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, streamSchedule))
	mean := 1 / rate
	var out []time.Duration
	var t float64
	for {
		// Clamp extreme draws (beyond the 1-in-1e8 quantile) so one gap
		// cannot stall a short run.
		t += min(rng.ExpFloat64()*mean, 20*mean)
		at := time.Duration(t * float64(time.Second))
		if at > dur {
			return out
		}
		out = append(out, at)
	}
}

// nominal is one open-loop phase's accounting over its measured arrivals
// (those intended after the warmup).
type nominal struct {
	offered, completed, failed, shed, queued int
	latMs                                    []float64   // intended arrival to commit, committed arrivals only
	latAt                                    []time.Time // intended arrival of each latMs sample
	maxLag                                   time.Duration
	firstErr                                 error
}

// runNominal offers the seeded Poisson schedule to a pool of workers slots
// and times each transaction from its intended arrival, so time spent
// queued behind busy slots counts. Arrivals intended before warmup run but
// are not measured. ridBase offsets the request ids of this phase.
func runNominal(ctx context.Context, seed uint64, rate float64, warmup, dur time.Duration, ridBase uint64, txn txnFunc) nominal {
	at := schedule(seed, rate, warmup+dur)
	type arrival struct {
		i        int
		intended time.Time
		queued   bool
	}
	lat := make([]float64, len(at))
	errs := make([]error, len(at))
	done := make([]bool, len(at))
	work := make(chan arrival, queueCap)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for a := range work {
				inflight.Add(1)
				rng := rand.New(rand.NewPCG(seed, uint64(a.i)))
				err := txn(ctx, slot, ridBase+uint64(a.i)+1, rng)
				lat[a.i] = float64(time.Since(a.intended)) / 1e6
				errs[a.i], done[a.i] = err, true
				inflight.Add(-1)
			}
		}(w)
	}

	var res nominal
	measured := func(i int) bool { return at[i] >= warmup }
	start := time.Now()
	for i, off := range at {
		intended := start.Add(off)
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(intended)
		a := arrival{i: i, intended: intended, queued: inflight.Load() >= workers}
		if !measured(i) {
			work <- a // warmup arrivals wait rather than shed
			continue
		}
		res.offered++
		res.maxLag = max(res.maxLag, lag)
		if a.queued {
			res.queued++
		}
		select {
		case work <- a:
		default:
			res.shed++
		}
	}
	close(work)
	wg.Wait()

	for i := range at {
		if !measured(i) || !done[i] {
			continue
		}
		if errs[i] != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = errs[i]
			}
			continue
		}
		res.completed++
		res.latMs = append(res.latMs, lat[i])
		res.latAt = append(res.latAt, start.Add(at[i]))
	}
	return res
}

// saturated is one closed-loop phase's accounting.
type saturated struct {
	attempted, failed int
	commits           []time.Time
	firstErr          error
}

// runSaturated runs workers clients back to back for dur. The phase ends by
// a flag each client checks between transactions, never by cancelling a
// transaction in flight. It runs untraced, so every request id is 0.
func runSaturated(ctx context.Context, seed uint64, dur time.Duration, txn txnFunc) saturated {
	var stop atomic.Bool
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	defer timer.Stop()
	type client struct {
		commits   []time.Time
		attempted int
		failed    int
		err       error
	}
	clients := make([]client, workers)
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &clients[c]
			rng := rand.New(rand.NewPCG(seed, streamClient+uint64(c)))
			for !stop.Load() && ctx.Err() == nil {
				cl.attempted++
				if err := txn(ctx, c, 0, rng); err != nil {
					cl.failed++
					if cl.err == nil {
						cl.err = err
					}
					continue
				}
				cl.commits = append(cl.commits, time.Now())
			}
		}(c)
	}
	wg.Wait()
	var res saturated
	for _, cl := range clients {
		res.attempted += cl.attempted
		res.failed += cl.failed
		res.commits = append(res.commits, cl.commits...)
		if res.firstErr == nil {
			res.firstErr = cl.err
		}
	}
	return res
}
