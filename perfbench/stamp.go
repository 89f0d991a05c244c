package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// stamp records where and on what a result was measured.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Params     params `json:"workload"`
}

// params are the workload parameters a result depends on.
type params struct {
	Name        string  `json:"name"`
	Nodes       int     `json:"nodes"`
	Shards      int     `json:"shards"`
	Workers     int     `json:"workers"`
	RateTxnS    float64 `json:"nominal_rate_txn_s"`
	Durable     bool    `json:"durable"`
	FsyncMs     float64 `json:"fsync_window_ms,omitempty"`
	Accounts    int     `json:"accounts,omitempty"`
	Locality    float64 `json:"locality,omitempty"`
	Objects     int     `json:"rbtree_objects,omitempty"`
	OpsPerTxn   int     `json:"rbtree_ops_per_txn,omitempty"`
	ReadRatio   float64 `json:"rbtree_read_ratio,omitempty"`
	ChkEvery    int     `json:"checkpoint_every,omitempty"`
	NominalSec  float64 `json:"nominal_s"`
	SaturateSec float64 `json:"saturated_s"`
}

func newStamp(w workload, seed uint64, seconds int, trace bool, commit string) stamp {
	p := params{
		Name: w.name, Nodes: nodes, Shards: w.shards, Workers: workers,
		RateTxnS: w.rate, Durable: w.durable, FsyncMs: w.fsync.Seconds() * 1e3,
	}
	if w.rbtree {
		p.Objects, p.OpsPerTxn, p.ReadRatio, p.ChkEvery = rbParams.Objects, rbParams.Ops, rbParams.ReadRatio, checkpointEvery
	} else {
		p.Accounts, p.Locality = refShards*accountsPerBucket, shardLocality
	}
	return stamp{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Commit: commit, Seed: seed, Seconds: seconds, Trace: trace, Params: p,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
