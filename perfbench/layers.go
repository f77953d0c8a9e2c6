package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"eugene/internal/sched"
	"eugene/internal/staged"
	"eugene/internal/tensor"
)

// Fixed-count layer probes of the traced run.
const (
	probeRows    = 400 // sequential 1-row requests per single-row probe
	probeBatches = 60  // sequential 64-row requests per batch probe
	probeCalls   = 400 // timed calls per staged and tensor shape
)

// runTraced deploys one stack with the tracer installed, runs the
// workload untraced and traced, times each layer from outside its
// public functions, and prints the per-layer metrics.
func runTraced(workload string, seed int64, seconds time.Duration, conns int, d *data) error {
	tr := newTracer()
	st, err := newStack(d, conns, tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	rng := rand.New(rand.NewSource(seed))
	rec := newRecord(workload, seed, conns)
	window := seconds / 4
	m := map[string]metric{}

	// The workload untraced, then traced: their p50s give the tracing
	// overhead; the untraced phase gives the process and generator
	// figures.
	untraced := runWorkload(st, d, rng, workload, window, conns)
	plain := summarize(untraced.shots, deadline)
	tr.on.Store(true)
	traced := summarize(runWorkload(st, d, rng, workload, window, conns).shots, deadline)
	tr.on.Store(false)
	tr.take()
	rec.Summary = plain
	rec.check(plain)
	rec.check(traced)
	m["trace.overhead_share"] = metric{traced.P50/plain.P50 - 1, "share"}
	m["process.allocs_per_row"] = metric{untraced.allocsPerRow, "count"}
	m["process.gc_per_krow"] = metric{untraced.gcPerKRow, "count"}
	m["loadgen.late_ms_p90"] = metric{plain.LateP90, "ms"}

	if err := probeHTTP(st, d, rng, tr, m); err != nil {
		return err
	}
	model, err := st.offlineModel()
	if err != nil {
		return err
	}
	probeStaged(model, d, m)
	if err := probeSched(st, model, d, rng, workload, window, conns, m); err != nil {
		return err
	}
	res := result{Correct: rec.Check == "", Attempted: plain.Rows + traced.Rows, Failed: plain.FailedRows + traced.FailedRows, Metrics: m}
	return emit(rec, res)
}

// probeCase is one probe request: send posts it through the router,
// local runs the same rows in-process.
type probeCase struct {
	send  func() reply
	local func() error
}

// probePath sends each case through the router one at a time with
// tracing on, so one connection is in use and each router span contains
// the replica span it caused, then times each case in-process. It
// returns the matched router and replica spans and the in-process times
// in ms.
func probePath(tr *tracer, cases []probeCase) (router, replica []span, local []float64, err error) {
	tr.on.Store(true)
	for _, c := range cases {
		if r := c.send(); r.kind != kindOK || r.invalid {
			tr.on.Store(false)
			return nil, nil, nil, fmt.Errorf("probe through the router: %v", r.err)
		}
	}
	tr.on.Store(false)
	spans := tr.take()
	router, replica = contained(only(spans, layerCluster), only(spans, layerService))
	for _, c := range cases {
		start := time.Now()
		if err := c.local(); err != nil {
			return nil, nil, nil, fmt.Errorf("in-process probe: %w", err)
		}
		local = append(local, ms(time.Since(start)))
	}
	return router, replica, local, nil
}

// probeHTTP measures the router, the replica's HTTP layer and core on
// 1-row and 64-row requests.
func probeHTTP(st *stack, d *data, rng *rand.Rand, tr *tracer, m map[string]metric) error {
	ctx := context.Background()
	bodies, rows := iotBodies(d, rng, probeRows)
	var cases []probeCase
	for i := range bodies {
		cases = append(cases, probeCase{
			send: func() reply { return st.postInfer(bodies[i], d.labels[rows[i]]) },
			local: func() error {
				_, err := st.svc.Infer(ctx, modelName, d.pool[rows[i]])
				if errors.Is(err, sched.ErrUnanswered) {
					return nil
				}
				return err
			},
		})
	}
	router, replica, local, err := probePath(tr, cases)
	if err != nil {
		return err
	}
	core1 := median(local)
	m["cluster.self_ms"] = metric{median(msList(selfTimes(router, replica))), "ms"}
	m["service.self_ms"] = metric{median(durations(replica)) - core1, "ms"}
	m["core.infer_ms_r1"] = metric{core1, "ms"}

	cases = cases[:0]
	for b := 0; b < probeBatches; b++ {
		var batch [][]float64
		var labels []int
		for i := 0; i < batchRows; i++ {
			r := rng.Intn(len(d.pool))
			batch, labels = append(batch, d.pool[r]), append(labels, d.labels[r])
		}
		body := batchBody(batch)
		cases = append(cases, probeCase{
			send: func() reply { return st.postBatch(body, labels) },
			local: func() error {
				_, err := st.svc.InferBatch(ctx, modelName, batch)
				return err
			},
		})
	}
	if router, replica, local, err = probePath(tr, cases); err != nil {
		return err
	}
	var bytes float64
	for _, s := range replica {
		bytes += float64(s.bytes)
	}
	core64 := median(local)
	m["cluster.self_ms_r64"] = metric{median(msList(selfTimes(router, replica))), "ms"}
	m["service.us_per_row"] = metric{1000 * (median(durations(replica)) - core64) / batchRows, "us"}
	m["service.body_bytes_per_row"] = metric{bytes / float64(max(len(replica), 1)) / batchRows, "bytes"}
	m["core.infer_batch_ms_r64"] = metric{core64, "ms"}
	return nil
}

// probeStaged times staged.Model.ExecStageBatch over every stage, and
// tensor.MatMulT on the model's hidden×hidden weights, at 1 and 32 rows.
func probeStaged(model *staged.Model, d *data, m map[string]metric) {
	for _, rows := range []int{1, 32} {
		in := d.pool[:rows]
		var calls []float64
		for len(calls) < probeCalls {
			h := in
			for s := 0; s < model.NumStages(); s++ {
				start := time.Now()
				next, _ := model.ExecStageBatch(h, s, nil)
				calls = append(calls, float64(time.Since(start))/float64(time.Microsecond))
				h = make([][]float64, len(next)) // next is model scratch
				for i, row := range next {
					h[i] = append([]float64(nil), row...)
				}
			}
		}
		m[fmt.Sprintf("staged.stage_us_r%d", rows)] = metric{median(calls), "us"}

		w := squareWeight(model)
		a, dst := tensor.NewMatrix(rows, w.Cols), tensor.NewMatrix(rows, w.Rows)
		for i := range a.Data {
			a.Data[i] = float64(i%7) / 7
		}
		calls = calls[:0]
		for len(calls) < probeCalls {
			start := time.Now()
			tensor.MatMulT(dst, a, w)
			calls = append(calls, time.Since(start).Seconds())
		}
		flops := 2 * float64(rows*w.Rows*w.Cols)
		m[fmt.Sprintf("tensor.gflops_r%d", rows)] = metric{flops / median(calls) / 1e9, "GFLOP/s"}
	}
}

// squareWeight returns the first hidden×hidden weight matrix of the
// first stage's body.
func squareWeight(model *staged.Model) *tensor.Matrix {
	for _, p := range model.Stages[0].Body.Params() {
		if len(p.Value) == model.Hidden*model.Hidden {
			return tensor.FromSlice(model.Hidden, model.Hidden, p.Value)
		}
	}
	return tensor.NewMatrix(model.Hidden, model.Hidden)
}

// schedTrace records, for the benchmark's own sched.Live, when each
// submitted row was first dispatched and every ExecStageBatch span.
type schedTrace struct {
	epoch    time.Time
	mu       sync.Mutex
	byRow    map[*float64]int // stage-0 input row → submit number
	submitAt []time.Duration
	firstAt  []time.Duration // 0 until dispatched
	execs    []span
	rows     int
}

// submit registers a fresh input row and returns its submit number.
func (t *schedTrace) submit(x []float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.submitAt)
	t.byRow[&x[0]] = n
	t.submitAt = append(t.submitAt, time.Since(t.epoch))
	t.firstAt = append(t.firstAt, 0)
	return n
}

func (t *schedTrace) exec(stage int, hidden [][]float64, start, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.execs = append(t.execs, span{start: start, end: end})
	t.rows += len(hidden)
	if stage != 0 {
		return
	}
	for _, row := range hidden {
		if n, ok := t.byRow[&row[0]]; ok && t.firstAt[n] == 0 {
			t.firstAt[n] = start
			delete(t.byRow, &row[0])
		}
	}
}

// reset forgets everything recorded so far.
func (t *schedTrace) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byRow = map[*float64]int{}
	t.submitAt, t.firstAt, t.execs, t.rows = nil, nil, nil, 0
}

// tracedExec is a sched.StageExecutor over a model clone that records
// each ExecStageBatch call.
type tracedExec struct {
	m   *staged.Model
	t   *schedTrace
	res []sched.StageResult
}

func (e *tracedExec) ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []sched.StageResult) {
	start := time.Since(e.t.epoch)
	next, outs := e.m.ExecStageBatch(hidden, stage, dst)
	e.t.exec(stage, hidden, start, time.Since(e.t.epoch))
	e.res = e.res[:0]
	for _, o := range outs {
		e.res = append(e.res, sched.StageResult{Pred: o.Pred, Conf: o.Conf})
	}
	return next, e.res
}

func (e *tracedExec) NumStages() int { return e.m.NumStages() }

// probeSched builds a sched.Live with the service's config and policy
// over traced executors and drives it three ways: in the workload's shape
// for window, in sustained overload for window, and with one caller. It
// reports the scheduler's metrics.
func probeSched(st *stack, model *staged.Model, d *data, rng *rand.Rand, workload string, window time.Duration, conns int, m map[string]metric) error {
	cfg := serverConfig()
	entry, err := st.svc.Entry(modelName)
	if err != nil {
		return err
	}
	policy := sched.Policy(sched.NewFIFO())
	if entry.Pred != nil {
		policy = sched.NewGreedy(cfg.Lookahead, entry.Pred, "RTDeepIoT")
	}
	t := &schedTrace{epoch: time.Now()}
	t.reset()
	execs := make([]sched.StageExecutor, cfg.Workers)
	for i := range execs {
		execs[i] = &tracedExec{m: model.Clone(), t: t}
	}
	var degrade atomic.Int32
	live, err := sched.NewLive(sched.LiveConfig{
		Workers: cfg.Workers, Deadline: cfg.Deadline, QueueDepth: cfg.QueueDepth,
		MaxBatch: cfg.MaxBatch, Admission: cfg.Admission, DegradeSignal: &degrade,
	}, policy, execs)
	if err != nil {
		return err
	}
	defer live.Stop()
	stages := model.NumStages()
	ctx := context.Background()
	var depth atomic.Int64 // stages executed over answered rows
	fresh := func(row int) []float64 { return append([]float64(nil), d.pool[row]...) }
	one := func(row int) reply {
		x := fresh(row)
		t.submit(x)
		resp, err := live.Submit(ctx, x, stages)
		depth.Add(int64(resp.Stages))
		return rowReply(resp, err, d.labels[row])
	}
	batch := func(rows []int) reply {
		xs := make([][]float64, len(rows))
		for i, row := range rows {
			xs[i] = fresh(row)
			t.submit(xs[i])
		}
		resps, err := live.SubmitBatch(ctx, xs, stages)
		var ov *sched.ErrOverloaded
		switch {
		case errors.As(err, &ov):
			return reply{kind: kindRejected, rows: len(rows), err: err}
		case err != nil:
			return reply{kind: kindFailed, rows: len(rows), err: err}
		}
		r := reply{kind: kindOK, rows: len(rows)}
		for i, resp := range resps {
			r.add(resp.Stages, resp.Pred, resp.Expired, d.labels[rows[i]])
			depth.Add(int64(resp.Stages))
		}
		return r
	}
	pick := func(n int) []int {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = rng.Intn(len(d.pool))
		}
		return rows
	}
	// overload offers single rows at surgeRate, each in a goroutine of
	// its own.
	overload := func(window time.Duration) []shot {
		rows := pick(int(surgeRate * window.Seconds()))
		return spawnLoop(time.Now(), schedule(rng, len(rows), surgeRate), func(i int) reply { return one(rows[i]) })
	}

	// The workload's own shape.
	var shots []shot
	wallStart := time.Now()
	switch workload {
	case "iot":
		rows := pick(int(iotRate * window.Seconds()))
		shots = openLoop(time.Now(), schedule(rng, len(rows), iotRate), conns, nil, func(i int) reply { return one(rows[i]) })
	case "gateway":
		sets := make([][]int, 64)
		for b := range sets {
			sets[b] = pick(batchRows)
		}
		shots = closedLoop(time.Now().Add(window), conns, func(i int) reply { return batch(sets[i%len(sets)]) })
	}
	wall := time.Since(wallStart)
	s := summarize(shots, deadline)
	t.mu.Lock()
	var waits []float64
	for n, at := range t.firstAt {
		if at > 0 {
			waits = append(waits, ms(at-t.submitAt[n]))
		}
	}
	var busy time.Duration
	for _, e := range t.execs {
		busy += e.dur()
	}
	calls, rows := len(t.execs), t.rows
	t.mu.Unlock()
	m["sched.queue_wait_ms"] = metric{median(waits), "ms"}
	m["sched.group_rows"] = metric{float64(rows) / float64(max(calls, 1)), "rows"}
	m["sched.worker_busy_share"] = metric{busy.Seconds() / (float64(cfg.Workers) * wall.Seconds()), "share"}

	// Sustained overload: the admission forecast, the degradation ladder
	// and the anytime answers. The onset does not count.
	overload(surgeOnset)
	depth.Store(0)
	before := live.Stats()
	var samples, degraded atomic.Int64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				samples.Add(1)
				if live.Stats().DegradeLevel >= sched.DegradeExit {
					degraded.Add(1)
				}
			}
		}
	}()
	shots = overload(window)
	close(stop)
	sampler.Wait()
	after := live.Stats()
	s = summarize(shots, deadline)
	attempted := float64(max(s.Rows, 1))
	m["sched.stages_per_row"] = metric{float64(depth.Load()) / float64(max(s.Answered, 1)), "stages"}
	m["sched.degraded_share"] = metric{float64(degraded.Load()) / float64(max(samples.Load(), 1)), "share"}
	m["sched.reject_share"] = metric{float64(s.RejectedRows) / attempted, "share"}
	m["sched.server_goodput_gap"] = metric{float64(after.Goodput-before.Goodput)/attempted - share(s.OnTime, s.Rows), "share"}

	// One caller, one row at a time: every exec span inside a Submit
	// span belongs to it.
	time.Sleep(250 * time.Millisecond)
	t.reset()
	var submits []span
	for i := 0; i < probeRows; i++ {
		start := time.Since(t.epoch)
		one(rng.Intn(len(d.pool)))
		submits = append(submits, span{start: start, end: time.Since(t.epoch)})
	}
	t.mu.Lock()
	execSpans := append([]span(nil), t.execs...)
	t.mu.Unlock()
	m["sched.self_ms"] = metric{median(msList(selfTimes(submits, execSpans))), "ms"}
	return nil
}

func only(spans []span, layer string) []span {
	var out []span
	for _, s := range spans {
		if s.layer == layer {
			out = append(out, s)
		}
	}
	return out
}

func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
