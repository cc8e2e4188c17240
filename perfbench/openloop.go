package main

import (
	"context"
	"time"
)

// clock is the open-loop generator's time source: real in the benchmark,
// fake in tests.
type clock interface {
	// Now returns the time elapsed since the loop started.
	Now() time.Duration
	// SleepUntil blocks until Now() >= t or ctx ends.
	SleepUntil(ctx context.Context, t time.Duration)
}

type realClock struct{ start time.Time }

func (c realClock) Now() time.Duration { return time.Since(c.start) }

func (c realClock) SleepUntil(ctx context.Context, t time.Duration) {
	d := t - c.Now()
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// sample is one open-loop request: when it was due, when a connection
// actually sent it, and when its response completed, all on the loop's
// clock.
type sample struct {
	sched, sent, done time.Duration
}

// latency is measured from the scheduled send time, so a stall that delays
// later sends counts against every request it delayed.
func (s sample) latency() time.Duration { return s.done - s.sched }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent - s.sched }

// openLoop sends request i at sched[i] over conns connections, whatever
// the state of earlier requests: when every connection is busy, the send
// waits for the first free one and the wait shows as lag. send runs on the
// connection's goroutine; openLoop returns once every sent request has
// completed. Requests not yet sent when ctx ends are skipped (their sample
// has sent == 0 and done == 0).
func openLoop(ctx context.Context, clk clock, sched []time.Duration, conns int, send func(conn, i int)) []sample {
	out := make([]sample, len(sched))
	type task struct{ i int }
	free := make(chan int, conns) // sized to the number of connections
	for c := 0; c < conns; c++ {
		free <- c
	}
	work := make([]chan task, conns)
	done := make(chan struct{})
	for c := range work {
		work[c] = make(chan task, 1) // one request in flight per connection
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for t := range work[c] {
				send(c, t.i)
				out[t.i].done = clk.Now()
				free <- c
			}
		}(c)
	}
	for i, at := range sched {
		var c int
		select {
		case c = <-free:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		clk.SleepUntil(ctx, at)
		if ctx.Err() != nil {
			free <- c
			break
		}
		out[i].sched = at
		out[i].sent = clk.Now()
		work[c] <- task{i}
	}
	for c := range work {
		close(work[c])
	}
	for range work {
		<-done
	}
	return out
}
