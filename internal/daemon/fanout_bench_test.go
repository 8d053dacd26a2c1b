package daemon

import (
	"fmt"
	"io"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"divot/internal/attest"
	"divot/internal/telemetry"
	"divot/internal/wire"
)

// cpuSeconds returns this process's cumulative user+system CPU time.
func cpuSeconds(b *testing.B) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// BenchmarkEventFanout measures the multiplexed stream fan-out on one daemon:
// every published event travels the real subscriber path — per-link bus →
// bounded coalescing queue → binary frame encoding — to every watcher of that
// link. The fleet has 64 buses; each watcher subscribes to 4, so one publish
// reaches watchers/16 queues. Reported metrics: cores (process CPU over wall
// clock — the "<1 core at 10k watchers" acceptance number), deliveries/op
// (queue pushes one publish fans out to), and delivered frames/s.
func BenchmarkEventFanout(b *testing.B) {
	const nLinks = 64
	const linksPerWatcher = 4
	d, err := newWarm(benchSpec(nLinks, 0), Options{Config: lightConfig()})
	if err != nil {
		b.Fatal(err)
	}
	links := d.sortedLinks()
	for _, watchers := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("watchers=%d", watchers), func(b *testing.B) {
			stop := make(chan struct{})
			var delivered atomic.Uint64
			var subs []*telemetry.QueueSub
			queues := make([]*telemetry.Queue, watchers)
			for w := 0; w < watchers; w++ {
				q := telemetry.NewQueue(streamQueueCap)
				queues[w] = q
				for j := 0; j < linksPerWatcher; j++ {
					ls := links[(w*linksPerWatcher+j)%nLinks]
					subs = append(subs, ls.events.SubscribeQueue(q))
				}
				go func(q *telemetry.Queue) {
					var buf []byte
					for {
						select {
						case <-q.Ready():
							for {
								ev, ok := q.TryPop()
								if !ok {
									break
								}
								buf = wire.AppendEventFrame(buf[:0], attest.EventFromTelemetry(ev))
								io.Discard.Write(buf) //nolint:errcheck // Discard
								delivered.Add(1)
							}
						case <-stop:
							return
						}
					}
				}(q)
			}

			for i := 0; i < nLinks; i++ { // warm the fan-out path
				links[i].record(telemetry.Event{Kind: telemetry.EventAlert, Link: links[i].id})
			}
			b.ResetTimer()
			cpu0, t0, d0 := cpuSeconds(b), time.Now(), delivered.Load()
			for i := 0; i < b.N; i++ {
				ls := links[i%nLinks]
				ls.record(telemetry.Event{Kind: telemetry.EventAlert, Link: ls.id, Round: uint64(i)})
			}
			// Drain: every published event is eventually delivered, coalesced,
			// or dropped — wait for the queues to empty so consumer CPU is in
			// the measurement.
			for deadline := time.Now().Add(10 * time.Second); ; {
				busy := false
				for _, q := range queues {
					if q.Len() > 0 {
						busy = true
						break
					}
				}
				if !busy || time.Now().After(deadline) {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			wall := time.Since(t0).Seconds()
			cores := (cpuSeconds(b) - cpu0) / wall
			frames := delivered.Load() - d0
			b.StopTimer()
			b.ReportMetric(cores, "cores")
			b.ReportMetric(float64(frames)/float64(b.N), "deliveries/op")
			b.ReportMetric(float64(frames)/wall, "frames/s")
			close(stop)
			for _, s := range subs {
				s.Close()
			}
		})
	}
}
