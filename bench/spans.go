package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are kept in
// memory while the benchmark runs and written out when it ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`   // "<layer>.<Call>", or "op"/"setup" for roots
	// Req identifies the window, request or op the call served; the spans
	// of one window or request share it.
	Req   int   `json:"req"`
	Start int64 `json:"start_ns"` // since the recorder was created
	End   int64 `json:"end_ns"`
}

// recorder records spans around the benchmark's calls while on is set.
// Calls are made from one goroutine, so nesting follows a stack.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its handle for end; it returns -1, and
// end ignores it, while recording is off.
func (r *recorder) begin(name string, req int) int {
	if r == nil || !r.on {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(time.Since(r.t0))})
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of that interval its child spans cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanSummary aggregates spans by name: total self time and count, over
// the spans that descend from a root of the given name.
type spanSummary struct {
	self  map[string]int64
	count map[string]int
	// under sums, per parent name, the duration of the named child call
	// ("window.EXIST/node.Run").
	under map[string]int64
}

func summarize(spans []span, root string) spanSummary {
	sum := spanSummary{self: map[string]int64{}, count: map[string]int{}, under: map[string]int64{}}
	self := selfTimes(spans)
	rootOf := make([]int, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = i
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
	}
	for i, s := range spans {
		if spans[rootOf[i]].Name != root {
			continue
		}
		sum.self[s.Name] += self[i]
		sum.count[s.Name]++
		if s.Parent >= 0 {
			sum.under[spans[s.Parent].Name+"/"+s.Name] += s.End - s.Start
		}
	}
	return sum
}

// total returns the summed self time of every span in the summary, which
// equals the summed duration of its roots.
func (s spanSummary) total() int64 {
	var t int64
	for _, v := range s.self {
		t += v
	}
	return t
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
