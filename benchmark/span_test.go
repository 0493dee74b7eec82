package main

import "testing"

func TestSelfTimeArithmetic(t *testing.T) {
	tr := newTracer(128)
	run := tr.begin(spanRun, -1, 0, 0)
	// Two operations in flight at once: they overlap each other and all the
	// calls, and must not be charged against the run.
	op1 := tr.begin(spanOp, run, 1, 10)
	i1 := tr.begin(spanCoreIssue, run, 1, 10)
	tr.end(i1, 30)
	op2 := tr.begin(spanOp, run, 2, 40)
	i2 := tr.begin(spanCoreIssue, run, 2, 40)
	tr.end(i2, 70)
	y := tr.begin(spanYield, run, 0, 100)
	tr.end(y, 400)
	p := tr.begin(spanCorePoll, run, 0, 400)
	tr.end(p, 450)
	tr.end(op1, 450)
	tr.end(op2, 450)
	open := tr.begin(spanCorePoll, run, 0, 900) // still open at the end
	_ = open
	tr.end(run, 1000)

	self := selfTimes(tr.spans)
	// run: 1000 total, minus issue 20 + 30, yield 300, poll 50 = 600.
	if self[run] != 600 {
		t.Errorf("run self = %d, want 600", self[run])
	}
	if self[op1] != 440 || self[op2] != 410 {
		t.Errorf("op selves = %d, %d, want 440, 410 (ops have no children)", self[op1], self[op2])
	}
	if self[y] != 300 {
		t.Errorf("yield self = %d, want 300", self[y])
	}

	sum := summarize(tr.spans)
	if sum[spanCorePoll].Count != 1 || sum[spanCorePoll].TotalNs != 50 {
		t.Errorf("open span counted: %+v", sum[spanCorePoll])
	}
	if sum[spanCoreIssue].TotalNs != 50 || sum[spanCoreIssue].P50Ns != 30 {
		t.Errorf("issue summary = %+v", sum[spanCoreIssue])
	}
	if sum[spanRun].SelfNs != 600 || sum[spanOp].Count != 2 {
		t.Errorf("run/op summary = %+v / %+v", sum[spanRun], sum[spanOp])
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{kind: spanRun, parent: -1, start: 0, end: 100},
		{kind: spanCorePoll, parent: 0, start: 10, end: 50},
		{kind: spanCorePoll, parent: 0, start: 30, end: 60},  // overlaps the first by 20
		{kind: spanCorePoll, parent: 0, start: 90, end: 120}, // runs past the parent
	}
	if self := selfTimes(spans); self[0] != 100-50-10 {
		t.Errorf("parent self = %d, want 40", self[0])
	}
}

func TestTracerStopsWhenFull(t *testing.T) {
	tr := newTracer(80)
	for i := 0; i < 100; i++ {
		tr.end(tr.begin(spanCorePoll, -1, 0, int64(i)), int64(i+1))
	}
	if !tr.full() || len(tr.spans) != 80 {
		t.Errorf("full=%v len=%d", tr.full(), len(tr.spans))
	}
	if tr.begin(spanCorePoll, -1, 0, 0) != -1 {
		t.Error("begin past capacity returned an index")
	}
	tr.end(-1, 5) // must not panic
}
