package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the recorder's epoch; Parent is 0 for a root span; Req
// groups every span of one request (one pair run or one served request).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory for the traced run and writes them out
// when the run ends. A nil *spanLog records nothing, so untraced runs pay
// one branch per boundary.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	next  uint64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin() (uint64, time.Time) {
	now := time.Now()
	if l == nil {
		return 0, now
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	return id, now
}

// end closes the span id opened at start and returns its duration.
func (l *spanLog) end(id, parent, req uint64, name string, start time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(start)
	if l == nil {
		return d
	}
	l.add(span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.epoch).Nanoseconds(), End: now.Sub(l.epoch).Nanoseconds()})
	return d
}

// add records an already-timed span, allocating its id when it has none.
func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if s.ID == 0 {
		l.next++
		s.ID = l.next
	}
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// since converts an absolute time to the log's nanosecond clock.
func (l *spanLog) since(t time.Time) int64 { return t.Sub(l.epoch).Nanoseconds() }

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(l.spans)
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", n, path)
	return nil
}
