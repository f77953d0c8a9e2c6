package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// kind classifies how a request ended, as its client saw it.
type kind uint8

const (
	// kindOK: the system answered (rows may still be expired).
	kindOK kind = iota
	// kindRejected: refused at admission (HTTP 429, sched.ErrOverloaded).
	kindRejected
	// kindFailed: any other error.
	kindFailed
)

// reply is what one request returned.
type reply struct {
	kind kind
	// rows is how many rows the request carried.
	rows int
	// answered counts rows with at least one stage executed; fresh those
	// of them the server did not mark expired; correct the fresh rows
	// whose class equals the label.
	answered, fresh, correct int
	// invalid marks an answer that breaks the output contract: a wrong
	// result count or a class outside the model's range.
	invalid bool
	err     error
}

// add counts one row answered with the given depth, class and expiry.
func (r *reply) add(stages, pred int, expired bool, label int) {
	if stages == 0 {
		return
	}
	r.answered++
	if pred < 0 || pred >= synth.Classes {
		r.invalid = true
		r.err = fmt.Errorf("class %d outside [0,%d)", pred, synth.Classes)
		return
	}
	if expired {
		return
	}
	r.fresh++
	if pred == label {
		r.correct++
	}
}

// shot is one request's outcome with its timing. at is the request's
// due time (open loop) or send time (closed loop), as an offset from the
// start of its loop; lat runs from at to the answer; late is how far the
// send trailed the due time.
type shot struct {
	reply
	at, late, lat time.Duration
}

// onTime counts the rows answered fresh within the deadline on the
// client's clock.
func (s *shot) onTime(deadline time.Duration) int {
	if s.kind != kindOK || s.lat > deadline {
		return 0
	}
	return s.fresh
}

// onTimeCorrect counts the on-time rows whose class equals the label.
func (s *shot) onTimeCorrect(deadline time.Duration) int {
	if s.kind != kindOK || s.lat > deadline {
		return 0
	}
	return s.correct
}

// openLoop sends len(due) requests, request i due at start+due[i], from
// conns goroutines that each take the next request in order. When every
// goroutine is busy the next request goes out late, and its latency,
// counted from its due time, carries that wait. Once stop (if non-nil)
// is set no further request goes out, and only the shots of the
// requests sent are returned.
func openLoop(start time.Time, due []time.Duration, conns int, stop *atomic.Bool, send func(i int) reply) []shot {
	shots := make([]shot, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop != nil && stop.Load() {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				r := send(i)
				shots[i] = shot{reply: r, at: due[i], late: sent.Sub(at), lat: time.Since(at)}
			}
		}()
	}
	wg.Wait()
	return shots[:min(int(next.Load()), len(due))] // indices were taken in order
}

// spawnLoop starts request i in a goroutine of its own at start+due[i]
// and returns once every request has ended.
func spawnLoop(start time.Time, due []time.Duration, send func(i int) reply) []shot {
	shots := make([]shot, len(due))
	var wg sync.WaitGroup
	for i := range due {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Now()
			r := send(i)
			shots[i] = shot{reply: r, at: due[i], late: sent.Sub(at), lat: time.Since(at)}
		}()
	}
	wg.Wait()
	return shots
}

// closedLoop runs callers goroutines that each send their next request
// as soon as the previous one returns, until end. send receives a
// request number unique across callers.
func closedLoop(end time.Time, callers int, send func(i int) reply) []shot {
	start := time.Now()
	per := make([][]shot, callers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				sent := time.Now()
				r := send(int(next.Add(1) - 1))
				per[c] = append(per[c], shot{reply: r, at: sent.Sub(start), lat: time.Since(sent)})
			}
		}()
	}
	wg.Wait()
	var all []shot
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// summary aggregates a set of shots.
type summary struct {
	Sent     int `json:"sent"`
	OK       int `json:"succeeded"`
	Rejected int `json:"rejected"`
	Failed   int `json:"failed"`
	Invalid  int `json:"invalid"`

	Rows         int `json:"rows"`
	RejectedRows int `json:"rejected_rows"`
	FailedRows   int `json:"failed_rows"`
	Answered     int `json:"answered_rows"`
	OnTime       int `json:"on_time_rows"`
	Correct      int `json:"correct_rows"`

	// Latency of answered requests, in ms, nearest rank.
	Samples   int     `json:"latency_samples"`
	P50       float64 `json:"p50_ms"`
	P90       float64 `json:"p90_ms"`
	P99       float64 `json:"p99_ms"`
	P99Beyond int     `json:"p99_samples_beyond"`

	// Span is the seconds from the first request's due or send time to
	// the last answer.
	Span float64 `json:"span_s"`

	LateP90 float64 `json:"late_ms_p90"`
	LateMax float64 `json:"late_ms_max"`

	FirstError string `json:"first_error,omitempty"`
}

// summarize aggregates shots, counting rows on time against deadline.
func summarize(shots []shot, deadline time.Duration) summary {
	var s summary
	lats := make([]float64, 0, len(shots))
	lates := make([]float64, 0, len(shots))
	var first, last time.Duration
	for i := range shots {
		sh := &shots[i]
		if i == 0 || sh.at < first {
			first = sh.at
		}
		last = max(last, sh.at+sh.lat)
		s.Sent++
		s.Rows += sh.rows
		lates = append(lates, ms(sh.late))
		if sh.invalid {
			s.Invalid++
		}
		switch sh.kind {
		case kindOK:
			s.OK++
		case kindRejected:
			s.Rejected++
			s.RejectedRows += sh.rows
		case kindFailed:
			s.Failed++
			s.FailedRows += sh.rows
			if s.FirstError == "" && sh.err != nil {
				s.FirstError = sh.err.Error()
			}
		}
		if sh.kind == kindOK && sh.answered > 0 {
			s.Answered += sh.answered
			lats = append(lats, ms(sh.lat))
		}
		s.OnTime += sh.onTime(deadline)
		s.Correct += sh.onTimeCorrect(deadline)
	}
	s.Span = (last - first).Seconds()
	s.Samples = len(lats)
	s.P50 = percentile(lats, 50)
	s.P90 = percentile(lats, 90)
	s.P99 = percentile(lats, 99)
	s.P99Beyond = tailCount(len(lats), 99)
	s.LateP90 = percentile(lates, 90)
	if n := len(lates); n > 0 {
		s.LateMax = lates[n-1]
	}
	return s
}

// slices is how many equal slices of its window a run's latency, goodput,
// accuracy and throughput figures are taken over. Each reported figure is
// the median over the slices, so a burst of interference from outside the
// process moves a few slices and not the figure.
const slices = 10

// figures are the end-to-end figures of one slice.
type figures struct {
	P50        float64 `json:"p50_ms"`
	P90        float64 `json:"p90_ms"`
	Goodput    float64 `json:"goodput"`
	Accuracy   float64 `json:"accuracy"`
	Throughput float64 `json:"throughput_rps"`
}

// sliceFigures cuts shots into k slices of equal length by their at
// times, and returns the median of each figure over the slices and the
// slices' own figures.
func sliceFigures(shots []shot, k int, deadline time.Duration) (figures, []figures) {
	if len(shots) == 0 {
		return figures{}, nil
	}
	lo, hi := shots[0].at, shots[0].at
	for i := range shots {
		lo, hi = min(lo, shots[i].at), max(hi, shots[i].at)
	}
	width := (hi-lo)/time.Duration(k) + 1
	parts := make([][]shot, k)
	for i := range shots {
		j := int((shots[i].at - lo) / width)
		parts[j] = append(parts[j], shots[i])
	}
	var per []figures
	var cols [5][]float64
	for _, part := range parts {
		s := summarize(part, deadline)
		f := figures{
			P50:        s.P50,
			P90:        s.P90,
			Goodput:    share(s.OnTime, s.Rows),
			Accuracy:   share(s.Correct, s.Rows),
			Throughput: float64(s.Answered) / s.Span,
		}
		per = append(per, f)
		for c, v := range []float64{f.P50, f.P90, f.Goodput, f.Accuracy, f.Throughput} {
			cols[c] = append(cols[c], v)
		}
	}
	return figures{
		P50:        median(cols[0]),
		P90:        median(cols[1]),
		Goodput:    median(cols[2]),
		Accuracy:   median(cols[3]),
		Throughput: median(cols[4]),
	}, per
}
