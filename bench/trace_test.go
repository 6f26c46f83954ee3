package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // sticks out of the parent
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
		{ID: 6, Parent: 3, Name: "leaf", Start: 35, End: 35}, // empty
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		// The children cover [10,60) and [90,100) of the parent: 60 of 100.
		"parent": {Count: 1, Total: 100, Self: 40},
		// 30+30+30 long; the first loses 5 to its leaf.
		"child": {Count: 3, Total: 90, Self: 85},
		"leaf":  {Count: 2, Total: 5, Self: 5},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	tr.nextRep()
	id := tr.begin("x", 0)
	tr.end(id)
	tr.add("y", 0, 1, 2)
	if id != 0 {
		t.Errorf("nil tracer handed out span id %d", id)
	}
}

func TestTracerRecordsNestingAndWritesJSONL(t *testing.T) {
	tr := newTracer()
	if len(tr.spans) != 0 {
		t.Fatalf("calibration left %d spans behind", len(tr.spans))
	}
	tr.nextRep()
	root := tr.begin("root", 0)
	kid := tr.begin("kid", root)
	time.Sleep(time.Millisecond)
	tr.end(kid)
	tr.end(root)
	tr.add("late", root, 5, 9)

	st := selfTimes(tr.spans)
	if st["kid"].Total < time.Millisecond || st["root"].Self >= st["root"].Total {
		t.Errorf("self times %+v", st)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	for i := 0; i < 2; i++ { // a second workload appends
		if err := tr.appendJSONL(path, "w"); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if s.Workload != "w" || s.Rep != 1 || s.End < s.Start {
			t.Errorf("line %d: %+v", lines, s)
		}
		lines++
	}
	if lines != 6 {
		t.Errorf("%d lines, want 6", lines)
	}
}
