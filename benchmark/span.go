package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// spanKind names what a span covers. Spans are recorded by the harness around
// its own calls into a layer (core, kv, ycsb) — never inside the program.
type spanKind uint8

const (
	spanRun            spanKind = iota // the whole traced slice; root of every other span
	spanOp                             // one operation: issue → completion observed
	spanCoreIssue                      // Thread.AsyncRead / AsyncWrite + PollGroup.Add
	spanCorePoll                       // PollGroup.WaitErr(n, 0)
	spanYield                          // runtime.Gosched: the P handed to engine/NIC goroutines
	spanYCSBNext                       // ycsb.Generator NextIndex + NextOp + Key
	spanKVReadHot                      // kv.Session.Read answered from the in-memory log
	spanKVReadCold                     // kv.Session.Read that issued a device read
	spanKVUpsert                       // kv.Session.Upsert
	spanKVCompletePend                 // kv.Session.CompletePending(false)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"run", "op", "core.issue", "core.poll", "sched.yield",
	"ycsb.next", "kv.read_hot", "kv.read_cold_issue", "kv.upsert", "kv.complete_pending",
}

// span is one recorded interval. parent indexes the span that caused it (-1
// for the root): the run loop causes every call and every operation, so the
// tree is two levels deep and the calls made for one operation are tied to
// it by the shared op id (0 = not tied to one).
type span struct {
	kind       spanKind
	parent     int32
	op         uint32
	start, end int64 // ns since the run's time base
}

// tracer keeps spans in a fixed, preallocated buffer and writes nothing until
// the run has ended. When the buffer fills, full() turns true and the traced
// slice stops, so the memory a trace takes does not depend on throughput.
type tracer struct {
	spans []span
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, 0, capacity)} }

func (t *tracer) full() bool { return len(t.spans) >= cap(t.spans)-64 }

// begin opens a span and returns its index, or -1 once the buffer is full.
func (t *tracer) begin(kind spanKind, parent int32, op uint32, now int64) int32 {
	if len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, span{kind: kind, parent: parent, op: op, start: now, end: -1})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32, now int64) {
	if i >= 0 {
		t.spans[i].end = now
	}
}

// setKind reclassifies an open span once the call's outcome is known (a KV
// read is hot or cold only after Read returns).
func (t *tracer) setKind(i int32, kind spanKind) {
	if i >= 0 {
		t.spans[i].kind = kind
	}
}

// spanSummary aggregates every closed span of one kind.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"` // total minus the time covered by child spans
	P50Ns   float64 `json:"p50_ns"`
}

// async reports whether a span kind marks a request's lifetime rather than
// time the driver spent: operations overlap each other and everything else, so
// they are left out of their parent's self time.
func (k spanKind) async() bool { return k == spanOp }

// selfTimes returns, per span, its duration minus the part of that interval
// its synchronous child spans cover (overlapping children count once). Spans
// are recorded in start order, so one pass with a per-parent cursor computes
// the covered part. Spans still open when the slice ended have self time 0
// and are skipped by summarize.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	cursor := make([]int64, len(spans)) // per parent: end of the part already covered
	for i, s := range spans {
		if s.end >= 0 {
			self[i] = s.end - s.start
		}
		cursor[i] = s.start
	}
	for _, s := range spans {
		if s.end < 0 || s.parent < 0 || s.kind.async() {
			continue
		}
		p := s.parent
		from, to := s.start, s.end
		if from < cursor[p] {
			from = cursor[p]
		}
		if spans[p].end >= 0 && to > spans[p].end {
			to = spans[p].end
		}
		if to > from {
			self[p] -= to - from
			cursor[p] = to
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

func summarize(spans []span) [numSpanKinds]spanSummary {
	var out [numSpanKinds]spanSummary
	durs := make([][]float64, numSpanKinds)
	self := selfTimes(spans)
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		k := &out[s.kind]
		k.Count++
		k.TotalNs += s.end - s.start
		k.SelfNs += self[i]
		durs[s.kind] = append(durs[s.kind], float64(s.end-s.start))
	}
	for k := range out {
		out[k].Name = spanNames[k]
		if len(durs[k]) > 0 {
			sort.Float64s(durs[k])
			out[k].P50Ns = durs[k][len(durs[k])/2]
		}
	}
	return out
}

// writeSpans dumps the first limit spans as JSON lines, one span each.
func writeSpans(path string, spans []span, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if len(spans) > limit {
		spans = spans[:limit]
	}
	for i, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"parent":%d,"op":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, spanNames[s.kind], s.parent, s.op, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
