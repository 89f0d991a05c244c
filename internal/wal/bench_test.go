package wal

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkWALAppend prices the WAL layer: one durable Append (stage,
// group-commit write+fsync, release) on a real file. The serial case is a
// lone appender, which pays the pacing interval per append; the parallel
// case runs 8 appenders per CPU that share each fsync. fsyncs/op reports
// the amortization.
func BenchmarkWALAppend(b *testing.B) {
	for _, interval := range []time.Duration{0, time.Millisecond} {
		for _, parallel := range []bool{false, true} {
			mode := "serial"
			if parallel {
				mode = "parallel"
			}
			b.Run(fmt.Sprintf("interval=%v/%s", interval, mode), func(b *testing.B) {
				w, _, err := Open(Options{Dir: b.TempDir(), FsyncInterval: interval})
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				rec := Cursor{Peer: 1, Index: 1}
				b.ReportAllocs()
				b.ResetTimer()
				if parallel {
					b.SetParallelism(8)
					b.RunParallel(func(pb *testing.PB) {
						for pb.Next() {
							if err := w.Append(KindCursor, rec); err != nil {
								b.Error(err)
								return
							}
						}
					})
				} else {
					for i := 0; i < b.N; i++ {
						if err := w.Append(KindCursor, rec); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(w.Fsyncs())/float64(b.N), "fsyncs/op")
			})
		}
	}
}
