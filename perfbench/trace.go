package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanID indexes a span in its tracer; noSpan is "no span" (a root's
// parent, or every id an untraced run hands out).
type spanID int32

const noSpan spanID = -1

// span is one call into a layer, recorded from the benchmark's side of
// the call: nothing inside the program is instrumented. Spans of one
// unit, batch or query share a trace id.
type span struct {
	name   string // "<layer>.<call>", e.g. "runstore.Append"
	parent spanID
	trace  int64
	start  int64 // ns since the tracer's epoch
	end    int64 // 0 while the call is still running
}

// tracer keeps every span in memory; dump writes them out when the run
// ends. A nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) start(name string, parent spanID, trace int64) spanID {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, trace: trace, start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds a span whose bounds the caller measured itself.
func (t *tracer) record(name string, parent spanID, trace int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, trace: trace,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// durations returns the duration in seconds of every finished span with
// the given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= s.start {
			out = append(out, float64(s.end-s.start)/1e9)
		}
	}
	return out
}

// dump writes every span as CSV: id, parent, trace, name, start and end
// in nanoseconds since the tracer was created.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,trace,name,start_ns,end_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.trace, s.name, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes is the wall-clock attribution of a traced window.
type selfTimes struct {
	wall    float64            // the measured window, s
	covered float64            // part of the window inside at least one span, s
	busy    map[string]float64 // span name -> summed span durations, s
	self    map[string]float64 // span name -> wall time attributed to it, s
	count   map[string]int     // span name -> spans
}

// unaccounted is the share of the window no span covers.
func (st selfTimes) unaccounted() float64 {
	if st.wall <= 0 {
		return 0
	}
	return (st.wall - st.covered) / st.wall
}

// layerSelf sums the attributed wall time of every span name in a layer.
func (st selfTimes) layerSelf(layer string) float64 {
	var s float64
	for name, v := range st.self {
		if layerOf(name) == layer {
			s += v
		}
	}
	return s
}

// analyze attributes every instant of the window to the spans running
// then that have no running child: a span's self time is its duration
// minus the part its children cover. When k such spans run at once —
// two scheduler workers, two ingest clients — each gets 1/k of the
// instant, so self times add up to the covered wall time instead of
// exceeding it, and covered + unaccounted = wall.
func (t *tracer) analyze(wall time.Duration) selfTimes {
	st := selfTimes{
		wall: wall.Seconds(),
		busy: map[string]float64{}, self: map[string]float64{}, count: map[string]int{},
	}
	if t == nil {
		return st
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	type event struct {
		at    int64
		start bool
		id    spanID
	}
	events := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		if s.end < s.start {
			continue // never finished: not a completed call
		}
		st.busy[s.name] += float64(s.end-s.start) / 1e9
		st.count[s.name]++
		events = append(events, event{s.start, true, spanID(i)}, event{s.end, false, spanID(i)})
	}
	// Equal timestamps: ends before starts, children's ends before their
	// parents' (children have larger ids), parents' starts before their
	// children's.
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.start != b.start {
			return !a.start
		}
		if a.start {
			return a.id < b.id
		}
		return a.id > b.id
	})

	active := make([]bool, len(spans))
	counted := make([]bool, len(spans)) // the span is counted in its parent's children
	children := make([]int32, len(spans))
	var leaves []spanID
	removeLeaf := func(id spanID) {
		for i, l := range leaves {
			if l == id {
				leaves = append(leaves[:i], leaves[i+1:]...)
				return
			}
		}
	}
	var prev int64
	for _, ev := range events {
		if dt := ev.at - prev; dt > 0 && len(leaves) > 0 {
			share := float64(dt) / 1e9 / float64(len(leaves))
			for _, l := range leaves {
				st.self[spans[l].name] += share
			}
			st.covered += float64(dt) / 1e9
		}
		prev = ev.at
		s := spans[ev.id]
		if ev.start {
			active[ev.id] = true
			if p := s.parent; p != noSpan && active[p] {
				counted[ev.id] = true
				if children[p]++; children[p] == 1 {
					removeLeaf(p)
				}
			}
			leaves = append(leaves, ev.id)
			continue
		}
		active[ev.id] = false
		removeLeaf(ev.id)
		if p := s.parent; counted[ev.id] {
			if children[p]--; children[p] == 0 && active[p] {
				leaves = append(leaves, p)
			}
		}
	}
	return st
}
