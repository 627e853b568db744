package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/diorama/continual/internal/vclock"
)

// Span names: one per call the benchmark makes into a layer.
const (
	spanIter     = "bench.iteration"
	spanRegister = "cq.Manager.Register"
	spanCommit   = "storage.Tx.Commit"
	spanPoll     = "cq.Manager.Poll"
	spanFlush    = "cq.Manager.FlushPush"
	spanCallback = "subscriber.callback"
	spanOpen     = "durable.Open"
)

// span is one timed call. Trace groups the spans of one commit (or one
// set-up); Parent is the index of the enclosing span, -1 for a root. A
// callback span carries the ExecTS it delivered until its parent is
// resolved to the newest commit it covers.
type span struct {
	Name   string           `json:"name"`
	Trace  int64            `json:"trace"`
	Parent int              `json:"parent"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	TS     vclock.Timestamp `json:"ts,omitempty"`
}

// tracer keeps spans in memory; a nil *tracer records nothing, so the
// untraced path costs one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, trace int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: now, End: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// callback records a finished subscriber callback that began at start
// and delivered a notification executed at ts. Its trace and parent are
// resolved later by resolveCallbacks.
func (t *tracer) callback(start time.Time, ts vclock.Timestamp, parent int) {
	if t == nil {
		return
	}
	s := span{Name: spanCallback, Trace: -1, Parent: parent, TS: ts,
		Start: start.Sub(t.t0).Nanoseconds(), End: time.Since(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// resolveCallbacks assigns each parentless callback span to the newest
// commit span at or before the timestamp it delivered. commits maps a
// commit timestamp to its span index and must be sorted by timestamp.
func (t *tracer) resolveCallbacks(commitTS []vclock.Timestamp, commitSpan []int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != spanCallback || s.Parent >= 0 {
			continue
		}
		k := sort.Search(len(commitTS), func(j int) bool { return commitTS[j] > s.TS }) - 1
		if k >= 0 {
			s.Parent = commitSpan[k]
			s.Trace = t.spans[commitSpan[k]].Trace
		}
	}
}

// selfTimes returns, per span name, the summed self time (duration less
// the union of its children's intervals) and the span count.
func (t *tracer) selfTimes() map[string]struct {
	self time.Duration
	n    int
} {
	out := map[string]struct {
		self time.Duration
		n    int
	}{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(s.Start, s.End, children[i])
		e := out[s.Name]
		e.self += time.Duration(self)
		e.n++
		out[s.Name] = e
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover, each
// clipped to the range and overlaps counted once.
func covered(lo, hi int64, iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as gzip-compressed JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSelfTimes turns span self times into the span.* per-layer
// metrics and writes the trace file.
func layerSelfTimes(r *report, t *tracer, path string) error {
	st := t.selfTimes()
	per := func(name string, unit time.Duration) float64 {
		e := st[name]
		return ratio(float64(e.self), float64(e.n)*float64(unit))
	}
	r.setLayer("span.register.self_ms_per_op", per(spanRegister, time.Millisecond))
	r.setLayer("span.commit.self_us_per_op", per(spanCommit, time.Microsecond))
	r.setLayer("span.poll.self_ms_per_op", per(spanPoll, time.Millisecond))
	r.setLayer("span.flush.self_ms_per_op", per(spanFlush, time.Millisecond))
	r.setLayer("span.callback.self_us_per_op", per(spanCallback, time.Microsecond))
	r.setLayer("span.open.self_ms_per_op", per(spanOpen, time.Millisecond))
	r.setLayer("trace.spans", float64(t.len()))
	if err := t.write(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.env.add("trace_file", path)
	return nil
}
