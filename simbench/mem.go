package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// memWatch samples the Go heap while a workload's window runs: the peak
// live heap (as marked by the last GC; it leaves out garbage, whose size
// depends on when GC happens to run) and the bytes allocated since it
// started.
type memWatch struct {
	stop   chan struct{}
	done   sync.WaitGroup
	peak   uint64
	alloc0 uint64
}

const (
	heapLive   = "/gc/heap/live:bytes"
	heapAllocs = "/gc/heap/allocs:bytes"
)

func readMem() (live, allocs uint64) {
	s := []metrics.Sample{{Name: heapLive}, {Name: heapAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// allocatedMB is the bytes allocated since the process started, in MB.
func allocatedMB() float64 {
	_, a := readMem()
	return float64(a) / 1e6
}

// watchMemory starts sampling every 10ms until Stop.
func watchMemory() *memWatch {
	m := &memWatch{stop: make(chan struct{})}
	m.peak, m.alloc0 = readMem()
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				if live, _ := readMem(); live > m.peak {
					m.peak = live
				}
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the heap peak and the bytes allocated
// since the watch began, both in MB.
func (m *memWatch) Stop() (peakMB, allocMB float64) {
	close(m.stop)
	m.done.Wait()
	live, allocs := readMem()
	if live > m.peak {
		m.peak = live
	}
	return float64(m.peak) / 1e6, float64(allocs-m.alloc0) / 1e6
}
