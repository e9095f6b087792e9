package main

import (
	"testing"
	"time"
)

func TestSelfNsSubtractsChildrenAndHotCalls(t *testing.T) {
	// root [0,100) holds a [10,40) and b [50,90); a holds c [20,30);
	// 5 ns of hot calls ran inside a, 7 inside root itself.
	spans := []Span{
		{Name: "root", Parent: -1, StartNs: 0, EndNs: 100, HotNs: 7},
		{Name: "a", Parent: 0, StartNs: 10, EndNs: 40, HotNs: 5},
		{Name: "c", Parent: 1, StartNs: 20, EndNs: 30},
		{Name: "b", Parent: 0, StartNs: 50, EndNs: 90},
	}
	want := []int64{100 - 30 - 40 - 7, 30 - 10 - 5, 10, 40}
	got := selfNs(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	var sum, hot int64
	for i, s := range spans {
		sum += got[i]
		hot += s.HotNs
	}
	if sum+hot != spans[0].Dur() {
		t.Errorf("self times %d + hot %d do not add up to the root's %d ns", sum, hot, spans[0].Dur())
	}
}

func TestTracerNestsSpansAndBooksHotCalls(t *testing.T) {
	tr := newTracer()
	tr.job = 3
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.addHot(hotSweep, time.Now(), true)
	tr.addHot(hotSweep, time.Now(), false)
	tr.end(inner)
	tr.end(outer)
	if tr.err != nil {
		t.Fatal(tr.err)
	}
	s := tr.spans
	if s[inner].Parent != outer || s[outer].Parent != -1 || s[inner].Job != 3 {
		t.Fatalf("spans = %+v", s)
	}
	if h := tr.hot[hotSweep]; h.Calls != 2 || h.Useful != 1 || h.Ns != s[inner].HotNs || s[outer].HotNs != 0 {
		t.Errorf("hot = %+v, inner HotNs %d, outer HotNs %d", h, s[inner].HotNs, s[outer].HotNs)
	}
}

func TestTracerRejectsOutOfOrderEnd(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	tr.begin("inner")
	tr.end(outer)
	if tr.err == nil {
		t.Fatal("closing an outer span before its child was accepted")
	}
}

func TestProbeMarksSplitTheSearch(t *testing.T) {
	tr := newTracer()
	tr.arrivalBuilt() // outside a search: no probe
	search := tr.begin("experiments.PeakThroughput")
	tr.startProbing()
	for i := 0; i < 3; i++ {
		tr.arrivalBuilt()
	}
	tr.stopProbing()
	tr.end(search)
	if tr.err != nil {
		t.Fatal(tr.err)
	}
	if tr.probes != 3 || len(tr.spans) != 4 || tr.job != -1 {
		t.Fatalf("probes %d, spans %d, job %d", tr.probes, len(tr.spans), tr.job)
	}
	for i, s := range tr.spans[1:] {
		if s.Name != "experiments.probe" || s.Parent != search || s.Job != i+1 || s.EndNs < s.StartNs {
			t.Errorf("probe %d = %+v", i, s)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]int64{4, 1, 3, 2}); m != 2 {
		t.Errorf("median even = %v (integer mean of 2 and 3)", m)
	}
	if m := median[float64](nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}
