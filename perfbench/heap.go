package main

import (
	"runtime/metrics"
	"time"
)

// heapSampler tracks the peak Go heap in use while it runs: bytes held
// by heap objects, live or not yet swept, sampled every 2 ms. This
// follows the collector's heap goal, so it is steadier run to run than
// the live heap a collection happens to find mid-analysis.
type heapSampler struct {
	quit chan struct{}
	done chan float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-h.quit:
				h.done <- float64(peak) / 1e6
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB (10^6 bytes).
func (h *heapSampler) stop() float64 {
	close(h.quit)
	return <-h.done
}
