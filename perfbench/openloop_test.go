package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told to: SleepUntil jumps forward, and the
// test's send function advances it by the service time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(_ context.Context, t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now < t {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

func schedule(n int, every time.Duration) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(i) * every
	}
	return s
}

// TestOpenLoopKeepsUp: a server faster than the arrival rate sees every
// request on time, and latency is the service time.
func TestOpenLoopKeepsUp(t *testing.T) {
	clk := &fakeClock{}
	ss := openLoop(context.Background(), clk, schedule(20, 10*time.Millisecond), 1, func(_, _ int) {
		clk.advance(4 * time.Millisecond)
	})
	for i, s := range ss {
		if s.lag() != 0 || s.latency() != 4*time.Millisecond {
			t.Errorf("request %d: lag %v latency %v, want 0 and 4ms", i, s.lag(), s.latency())
		}
	}
}

// TestOpenLoopCountsLag: a server slower than the arrival rate on one
// connection falls further behind with every request; each request's
// latency runs from when it was due, so it includes the wait for the
// connection, which shows as lag.
func TestOpenLoopCountsLag(t *testing.T) {
	clk := &fakeClock{}
	const every, service = 10 * time.Millisecond, 25 * time.Millisecond
	ss := openLoop(context.Background(), clk, schedule(10, every), 1, func(_, _ int) {
		clk.advance(service)
	})
	for i, s := range ss {
		d := time.Duration(i)
		wantLag := d * (service - every)
		if s.sched != d*every || s.lag() != wantLag || s.latency() != wantLag+service {
			t.Errorf("request %d: sched %v lag %v latency %v, want %v, %v, %v",
				i, s.sched, s.lag(), s.latency(), d*every, wantLag, wantLag+service)
		}
	}
}

// TestOpenLoopConnections: with as many connections as requests in
// flight, a slow request does not delay the next ones.
func TestOpenLoopConnections(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var order []int
	ss := openLoop(context.Background(), realClock{start: time.Now()}, []time.Duration{0, time.Millisecond, 2 * time.Millisecond}, 2,
		func(_, i int) {
			if i == 0 {
				<-release
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			if i == 2 {
				close(release)
			}
		})
	if !reflect.DeepEqual(order, []int{1, 2, 0}) {
		t.Errorf("completion order %v, want [1 2 0]", order)
	}
	for i, s := range ss {
		if s.done < s.sent || s.sent < s.sched {
			t.Errorf("request %d: sched %v sent %v done %v out of order", i, s.sched, s.sent, s.done)
		}
	}
}

// TestOpenLoopCancel: requests not sent before the context ends are
// skipped, and the loop still returns.
func TestOpenLoopCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	clk := &fakeClock{}
	sent := 0
	ss := openLoop(ctx, clk, schedule(10, time.Millisecond), 1, func(_, i int) {
		sent++
		if i == 2 {
			cancel()
		}
	})
	if sent != 3 || ss[5].sent != 0 || ss[5].done != 0 {
		t.Errorf("sent %d requests (sample 5: %+v), want 3 and an empty sample", sent, ss[5])
	}
}

func TestSeedDeterminism(t *testing.T) {
	for name, w := range simWorkloads {
		a, b := w.pairJobs(7), w.pairJobs(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: pair list differs for the same seed", name)
		}
		if len(a) != len(w.designs)*len(w.traces) {
			t.Errorf("%s: %d pairs, want %d", name, len(a), len(w.designs)*len(w.traces))
		}
		if reflect.DeepEqual(a, w.pairJobs(8)) {
			t.Errorf("%s: seeds 7 and 8 give the same pair list", name)
		}
	}

	a, b := serveSchedule(7, 400), serveSchedule(7, 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("serve schedule differs for the same seed")
	}
	if reflect.DeepEqual(a, serveSchedule(8, 400)) {
		t.Error("seeds 7 and 8 give the same serve schedule")
	}
	warm := make(map[string]bool)
	for _, j := range warmJobs(7) {
		warm[fmt.Sprint(j.Design, "/", j.Workload, "/", j.Seed)] = true
	}
	misses := make(map[uint64]bool)
	for i, r := range a {
		if want := time.Duration(i) * 25 * time.Millisecond; r.at != want {
			t.Fatalf("request %d due at %v, want %v", i, r.at, want)
		}
		key := fmt.Sprint(r.job.Design, "/", r.job.Workload, "/", r.job.Seed)
		switch {
		case r.miss:
			if warm[key] || misses[r.job.Seed] || r.job.Design != "Baryon" || r.job.Workload != "505.mcf_r" {
				t.Errorf("request %d: miss job %+v is not a fresh Baryon/505.mcf_r job", i, r.job)
			}
			misses[r.job.Seed] = true
		case !warm[key]:
			t.Errorf("request %d: hit job %+v is not in the warm set", i, r.job)
		}
	}
	if len(misses) != len(a)/serveMissEvery {
		t.Errorf("%d misses in %d requests, want one in %d", len(misses), len(a), serveMissEvery)
	}
}
