package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// serialLoop is the serve workloads' timed load: one client sends
// operations back to back, each as soon as the previous one returned,
// in blocks of `block`, until d has passed, at least minOps operations
// are done, and the block under way is done. A slow spell of the host
// thus lengthens the phase rather than thinning the latency samples.
// send performs operation i and returns its latency, which it
// times itself so that making the request is not counted. With one
// operation in flight nothing queues, so a host that is a little slower
// makes the latencies a little longer instead of making queues grow;
// concurrent senders on two shared vCPUs measured the host's scheduler.
// It returns each operation's latency in ms (+Inf when it failed), each
// block's wall in s, and how many operations failed, with the first
// error.
func serialLoop(d time.Duration, block, minOps int, send func(i int) (time.Duration, error)) (latency, walls []float64, failed int, first error) {
	deadline := time.Now().Add(d)
	for len(walls) == 0 || len(latency) < minOps || time.Now().Before(deadline) {
		start := time.Now()
		for j := 0; j < block; j++ {
			took, err := send(len(latency))
			lat := ms(took)
			if err != nil {
				lat = math.Inf(1)
				if failed++; first == nil {
					first = err
				}
			}
			latency = append(latency, lat)
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	return latency, walls, failed, first
}

// closedLoop sends operations 0..n-1 from `clients` goroutines, each
// sending its next operation as soon as its previous one returned, and
// returns the wall time of the whole batch.
func closedLoop(n, clients int, send func(i, lane int) error) (time.Duration, []error) {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for lane := 0; lane < clients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[i] = send(i, lane)
			}
		}(lane)
	}
	wg.Wait()
	return time.Since(start), errs
}

// firstError returns the first non-nil error, for a check's detail.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
