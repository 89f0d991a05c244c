package main

import (
	"bufio"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a virtual machine the hypervisor can take the CPU away; /proc/stat
// counts that time as steal. On a shared 2-vCPU virtual machine, episodes
// of 5–20% steal lasting tens of seconds doubled the p99 of the runs they
// fell in, while runs without steal agreed closely. The phases therefore
// measure in windows and leave out the windows in which the host stole
// more than quietSteal of the CPU; the report says how many were left out.

const (
	stealPeriod = 500 * time.Millisecond
	quietSteal  = 0.03
)

// stealProbe samples the machine's cumulative steal and total CPU time
// every stealPeriod until stopped.
type stealProbe struct {
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	at    []time.Time
	steal []uint64
	total []uint64
}

// startStealProbe takes a first sample now and then one per stealPeriod.
// Where /proc/stat cannot be read it records the times alone, so every
// window counts as quiet.
func startStealProbe() *stealProbe {
	p := &stealProbe{stop: make(chan struct{}), done: make(chan struct{})}
	p.sample()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(stealPeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				p.sample()
			case <-p.stop:
				p.sample()
				return
			}
		}
	}()
	return p
}

func (p *stealProbe) sample() {
	steal, total := readSteal()
	p.mu.Lock()
	p.at = append(p.at, time.Now())
	p.steal = append(p.steal, steal)
	p.total = append(p.total, total)
	p.mu.Unlock()
}

// windows stops the probe and returns its windows: window i runs from
// edges[i] to edges[i+1], and stolen[i] is the share of CPU time the host
// stole in it.
func (p *stealProbe) windows() (edges []time.Time, stolen []float64) {
	close(p.stop)
	<-p.done
	for i := 1; i < len(p.at); i++ {
		var f float64
		if dt := p.total[i] - p.total[i-1]; dt > 0 {
			f = float64(p.steal[i]-p.steal[i-1]) / float64(dt)
		}
		stolen = append(stolen, f)
	}
	return p.at, stolen
}

// readSteal returns the steal and total jiffies of the "cpu" line of
// /proc/stat, or zeros where it cannot be read.
func readSteal() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total
}

// quietWindows marks the windows to measure: those where the host stole at
// most quietSteal of the CPU. When fewer than half qualify, it marks the
// least-stolen half instead, so a run always measures at least half its
// time.
func quietWindows(stolen []float64) []bool {
	keep := make([]bool, len(stolen))
	n := 0
	for i, f := range stolen {
		if f <= quietSteal {
			keep[i] = true
			n++
		}
	}
	if 2*n >= len(stolen) {
		return keep
	}
	order := make([]int, len(stolen))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case stolen[a] < stolen[b]:
			return -1
		case stolen[a] > stolen[b]:
			return 1
		}
		return 0
	})
	clear(keep)
	for _, i := range order[:(len(stolen)+1)/2] {
		keep[i] = true
	}
	return keep
}

// windowOf returns the index of the window holding t, or -1 when t lies
// outside every window.
func windowOf(edges []time.Time, t time.Time) int {
	i, _ := slices.BinarySearchFunc(edges, t, func(e, t time.Time) int { return e.Compare(t) })
	// edges[i-1] <= t < edges[i] when t is not an edge itself.
	if i < len(edges) && edges[i].Equal(t) {
		i++
	}
	if i == 0 || i >= len(edges) {
		return -1
	}
	return i - 1
}
