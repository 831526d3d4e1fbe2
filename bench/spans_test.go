package main

import (
	"reflect"
	"testing"
)

// A hand-built tree: op [0,100) holds window [10,60) and decode [50,90),
// which overlap on [50,60); window holds run [20,40) and a child that
// spills past its parent, [30,70), which counts only up to 60.
func handTree() []span {
	return []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "window.EXIST", Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: "node.Run", Start: 20, End: 40},
		{ID: 3, Parent: 1, Name: "node.Harvest", Start: 30, End: 70},
		{ID: 4, Parent: 0, Name: "decode.Decode", Start: 50, End: 90},
		{ID: 5, Parent: -1, Name: "setup", Start: 200, End: 230},
		{ID: 6, Parent: 5, Name: "cluster.New", Start: 205, End: 215},
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(handTree())
	// op: 100 - |[10,90)| = 20; window: 50 - |[20,60)| = 10.
	want := []int64{20, 10, 20, 40, 40, 20, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestSummarizeByRoot(t *testing.T) {
	s := summarize(handTree(), "op")
	if s.self["cluster.New"] != 0 || s.count["setup"] != 0 {
		t.Errorf("op summary includes setup spans: %v", s.self)
	}
	if s.self["node.Run"] != 20 || s.count["node.Run"] != 1 {
		t.Errorf("node.Run self = %d (n=%d), want 20", s.self["node.Run"], s.count["node.Run"])
	}
	if s.under["window.EXIST/node.Run"] != 20 {
		t.Errorf("under = %v", s.under)
	}
	setup := summarize(handTree(), "setup")
	if setup.total() != 30 {
		t.Errorf("setup total = %d, want its root's 30", setup.total())
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	if id := r.begin("off", 0); id != -1 {
		t.Fatalf("recorder off returned span %d", id)
	}
	r.on = true
	root := r.begin("op", 7)
	a := r.begin("node.Run", 7)
	r.end(a)
	b := r.begin("decode.Decode", 7)
	c := r.begin("trace.UnmarshalSession", 7)
	r.end(c)
	r.end(b)
	r.end(root)
	parents := []int{}
	for _, s := range r.spans {
		parents = append(parents, s.Parent)
		if s.End < s.Start || s.Req != 7 {
			t.Errorf("bad span %+v", s)
		}
	}
	if want := []int{-1, 0, 0, 2}; !reflect.DeepEqual(parents, want) {
		t.Fatalf("parents = %v, want %v", parents, want)
	}
	var sum int64
	for _, v := range selfTimes(r.spans) {
		sum += v
	}
	if root := r.spans[0]; sum != root.End-root.Start {
		t.Errorf("self times sum to %d, root lasted %d", sum, root.End-root.Start)
	}
}
