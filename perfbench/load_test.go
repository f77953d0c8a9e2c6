package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopLatencyCarriesStall drives a fake server that stalls once
// over one connection. Requests that fell due during the stall go out
// late, and their latency, counted from the due time, must carry the
// wait; requests due after the backlog drains must not.
func TestOpenLoopLatencyCarriesStall(t *testing.T) {
	const (
		n     = 60
		gap   = 5 * time.Millisecond
		stall = 100 * time.Millisecond
		slow  = 10 // the request that stalls
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1)-1 == slow {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()

	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	shots := openLoop(time.Now(), due, 1, nil, func(int) reply {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return reply{kind: kindFailed, rows: 1, err: err}
		}
		resp.Body.Close()
		return reply{kind: kindOK, rows: 1, answered: 1, fresh: 1}
	})

	if got := shots[slow].lat; got < stall {
		t.Errorf("stalled request latency %v, want ≥ %v", got, stall)
	}
	// Request slow+1 fell due one gap after the stalled one was sent, so
	// it waited for the rest of the stall before it could go out.
	next := shots[slow+1]
	if want := stall - 2*gap; next.late < want || next.lat < want {
		t.Errorf("request after the stall: late %v, latency %v; want both ≥ %v", next.late, next.lat, want)
	}
	// The backlog drains in a few milliseconds; the last requests are on
	// schedule again.
	if last := shots[n-1]; last.lat > stall/2 {
		t.Errorf("last request latency %v, want the stall drained", last.lat)
	}
	s := summarize(shots, 50*time.Millisecond)
	if s.Sent != n || s.Answered != n || s.Failed != 0 {
		t.Fatalf("summary %+v, want %d sent and answered", s, n)
	}
	if s.OnTime >= n-1 {
		t.Errorf("%d of %d on time within 50ms, want the stalled ones missed", s.OnTime, n)
	}
}

func TestSummarizeCountsRowsAgainstDeadline(t *testing.T) {
	shots := []shot{
		{reply: reply{kind: kindOK, rows: 2, answered: 2, fresh: 2, correct: 1}, lat: 5 * time.Millisecond},
		{reply: reply{kind: kindOK, rows: 2, answered: 2, fresh: 2, correct: 2}, lat: 300 * time.Millisecond},
		{reply: reply{kind: kindOK, rows: 1, answered: 1, fresh: 0}, lat: time.Millisecond},
		{reply: reply{kind: kindRejected, rows: 3}},
		{reply: reply{kind: kindFailed, rows: 1}},
	}
	s := summarize(shots, 200*time.Millisecond)
	if s.Rows != 9 || s.Answered != 5 || s.OnTime != 2 || s.Correct != 1 {
		t.Fatalf("rows %d answered %d on time %d correct %d, want 9 5 2 1", s.Rows, s.Answered, s.OnTime, s.Correct)
	}
	if s.Rejected != 1 || s.RejectedRows != 3 || s.Failed != 1 || s.Samples != 3 {
		t.Fatalf("rejected %d (%d rows) failed %d samples %d, want 1 (3) 1 3", s.Rejected, s.RejectedRows, s.Failed, s.Samples)
	}
}
