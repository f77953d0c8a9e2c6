package main

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"eugene/internal/sched"
)

// Workload shapes. The rates are fixed here, not calibrated per run, so
// a faster or slower program meets the same offered load.
const (
	devices   = 64 // iot device tags
	batchRows = 64 // rows per gateway infer-batch body
	// iotRate is the iot offered load in rows/s, about a sixth of
	// max_rate_rps on a 2-vCPU host. At 500 rows/s the two connections
	// queue often enough that p90 swung between 2.5 and 7 ms from one
	// 4-s window to the next; at 300 it stayed within 2.6–3.4 ms.
	iotRate = 300
	// surgeRate is the traced run's overload rate, about 1.5× what the
	// scheduler answers per second under sustained overload on a 2-vCPU
	// host. Near 1.2× the degradation ladder's f32 tier lifts capacity to
	// about the offered rate, and a run flips between the tiers.
	surgeRate = 16000
	// surgeOnset is how long the overload runs before its window opens,
	// so the admission forecast settles and the onset does not count.
	surgeOnset = 2 * time.Second
	// latencyLimit is the p90 bound of max_rate_rps.
	latencyLimit = 10 * time.Millisecond
)

// deadline is the server's and the client's latency limit.
var deadline = serverConfig().Deadline

// schedule returns n due times at rate per second, from evenly spaced
// slots with a seeded jitter of up to a quarter slot each way, so
// arrivals keep their order.
func schedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	gap := float64(time.Second) / rate
	for i := range due {
		due[i] = time.Duration((float64(i) + 0.25 + 0.5*rng.Float64()) * gap)
	}
	return due
}

// iotBodies draws n single-row infer bodies, each a seeded pool row and
// device tag, and returns them with their pool rows.
func iotBodies(d *data, rng *rand.Rand, n int) ([][]byte, []int) {
	bodies, rows := make([][]byte, n), make([]int, n)
	for i := range rows {
		rows[i] = rng.Intn(len(d.pool))
		bodies[i] = inferBody(d.pool[rows[i]], deviceName(rng.Intn(devices)))
	}
	return bodies, rows
}

// phase is one workload window: its shots, the pool row of each iot
// request, and runtime.MemStats deltas over the window per row.
type phase struct {
	shots                   []shot
	sent                    []int
	allocsPerRow, gcPerKRow float64
}

// runWorkload drives the named workload on st for window.
func runWorkload(st *stack, d *data, rng *rand.Rand, workload string, window time.Duration, conns int) phase {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var p phase
	switch workload {
	case "iot":
		p.shots, p.sent = runIoT(st, d, rng, iotRate, window, conns)
	case "gateway":
		p.shots = runGateway(st, d, rng, window, conns)
	}
	runtime.ReadMemStats(&after)
	rows := 0
	for i := range p.shots {
		rows += p.shots[i].rows
	}
	rows = max(rows, 1)
	p.allocsPerRow = float64(after.Mallocs-before.Mallocs) / float64(rows)
	p.gcPerKRow = 1000 * float64(after.NumGC-before.NumGC) / float64(rows)
	return p
}

// runIoT offers 1-row, device-tagged infer requests through the router
// at rate per second for window, as an open loop over conns
// connections. Bodies are encoded ahead of time so the generator only
// sends. It returns the shots and the pool row of each request.
func runIoT(st *stack, d *data, rng *rand.Rand, rate float64, window time.Duration, conns int) ([]shot, []int) {
	n := int(rate * window.Seconds())
	bodies, rows := iotBodies(d, rng, n)
	due := schedule(rng, n, rate)
	shots := openLoop(time.Now().Add(10*time.Millisecond), due, conns, nil, func(i int) reply {
		return st.postInfer(bodies[i], d.labels[rows[i]])
	})
	return shots, rows
}

// runGateway runs callers closed-loop callers posting 64-row
// infer-batch bodies through the router for window.
func runGateway(st *stack, d *data, rng *rand.Rand, window time.Duration, callers int) []shot {
	const distinct = 64
	bodies := make([][]byte, distinct)
	labels := make([][]int, distinct)
	for b := range bodies {
		rows := make([][]float64, batchRows)
		labels[b] = make([]int, batchRows)
		for i := range rows {
			r := rng.Intn(len(d.pool))
			rows[i], labels[b][i] = d.pool[r], d.labels[r]
		}
		bodies[b] = batchBody(rows)
	}
	return closedLoop(time.Now().Add(window), callers, func(i int) reply {
		return st.postBatch(bodies[i%distinct], labels[i%distinct])
	})
}

// rowReply turns the scheduler's answer for one row into a reply.
func rowReply(resp sched.Response, err error, label int) reply {
	var ov *sched.ErrOverloaded
	switch {
	case err == nil, errors.Is(err, sched.ErrUnanswered):
		r := reply{kind: kindOK, rows: 1}
		r.add(resp.Stages, resp.Pred, resp.Expired, label)
		return r
	case errors.As(err, &ov):
		return reply{kind: kindRejected, rows: 1, err: err}
	default:
		return reply{kind: kindFailed, rows: 1, err: err}
	}
}

// The max-rate search repeats ramps until its budget is spent and
// reports their median. Each ramp raises the iot rate exponentially from
// rampLow, by rampGrowth per second, up to rampHigh, and stops once a
// request goes out rampAbort late: the backlog is growing for good.
const (
	rampLow    = 1000.0
	rampHigh   = 4000.0
	rampGrowth = 0.5
	rampAbort  = 100 * time.Millisecond
	rampRest   = 300 * time.Millisecond
	rampWindow = 200 // requests per sliding window of a ramp
)

// maxRate estimates the highest iot rate at which p90, counted from the
// due times, stays within latencyLimit while no backlog builds up: the
// median over the ramps that fit in budget. It returns the median and
// each ramp's estimate.
func maxRate(st *stack, d *data, rng *rand.Rand, budget time.Duration, conns int) (float64, []float64) {
	var rates []float64
	for end := time.Now().Add(budget); len(rates) == 0 || time.Until(end) > time.Second; {
		rates = append(rates, ramp(st, d, rng, conns))
		time.Sleep(rampRest) // let the backlog drain
	}
	return median(append([]float64(nil), rates...)), rates
}

// ramp offers a rate rising exponentially from rampLow to rampHigh, with
// seeded jitter, and slides a window of rampWindow consecutive requests,
// by due time, over the ramp. A window passes when every request in it
// was answered and its p90 is within latencyLimit. Below the knee a
// stall's backlog drains and later windows pass again; past it the
// backlog only grows. The estimate is the rate at the last due time of
// the last passing window.
func ramp(st *stack, d *data, rng *rand.Rand, conns int) float64 {
	const g = rampGrowth
	// Request i falls due when the arrivals so far, rampLow/g·(e^{gt}−1),
	// reach i+u, u uniform in [0.25, 0.75).
	n := int(math.Ceil(rampLow / g * (rampHigh/rampLow - 1)))
	due := make([]time.Duration, n)
	for i := range due {
		k := float64(i) + 0.25 + 0.5*rng.Float64()
		due[i] = time.Duration(math.Log(1+k*g/rampLow) / g * float64(time.Second))
	}
	bodies, rows := iotBodies(d, rng, n)
	var stop atomic.Bool
	start := time.Now().Add(10 * time.Millisecond)
	shots := openLoop(start, due, conns, &stop, func(i int) reply {
		if time.Since(start.Add(due[i])) > rampAbort {
			stop.Store(true)
		}
		return st.postInfer(bodies[i], d.labels[rows[i]])
	})

	best := 0.0
	lats := make([]float64, 0, rampWindow)
	for end := rampWindow; end <= len(shots); end++ {
		lats = lats[:0]
		ok := true
		for _, sh := range shots[end-rampWindow : end] {
			lats = append(lats, ms(sh.lat))
			ok = ok && sh.kind == kindOK && sh.answered == sh.rows
		}
		if ok && percentile(lats, 90) <= ms(latencyLimit) {
			best = rampLow * math.Exp(g*due[end-1].Seconds())
		}
	}
	return best
}
