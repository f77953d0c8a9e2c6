// Command perfbench is Eugene's serving benchmark. It trains a staged
// model, serves it through a cluster router and one replica in this
// process, drives one workload, checks the answers, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload iot --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// again with spans on and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// heldoutSeed is a seed no tuning run used; a performance claim must
// also hold on it.
const heldoutSeed = 7919

// setupRepeats is how many times a run deploys the stack; setup_s is
// the median, and the last deployment serves the workload.
const setupRepeats = 3

// accuracyMargin is how far iot accuracy may fall below the model's
// offline accuracy on the same rows before the run fails its check.
const accuracyMargin = 0.05

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "iot or gateway")
	seed := flag.Int64("seed", 1, "seed for row order, device tags and arrival jitter")
	seconds := flag.Int("seconds", 30, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds time.Duration, traced bool) error {
	if workload != "iot" && workload != "gateway" {
		return fmt.Errorf("unknown workload %q (want iot or gateway)", workload)
	}
	if seconds < time.Second {
		return fmt.Errorf("--seconds must be at least 1")
	}
	conns := min(2, runtime.NumCPU())
	d, err := makeData()
	if err != nil {
		return err
	}
	if traced {
		return runTraced(workload, seed, seconds, conns, d)
	}

	var setups []float64
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		if st, err = newStack(d, conns, nil); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.close()
	rec := newRecord(workload, seed, conns)
	rec.Setup, rec.SetupSteps = setups, st.setup

	rng := rand.New(rand.NewSource(seed))
	e2e, err := measure(st, d, rng, workload, seconds, conns, &rec)
	if err != nil {
		return err
	}
	e2e["setup_s"] = metric{median(setups), "s"}

	res := result{Correct: rec.Check == "", Attempted: rec.Summary.Rows, Failed: rec.Summary.FailedRows, Metrics: e2e}
	return emit(rec, res)
}

// measure spends a third of the measured seconds on the max-rate search
// on the iot path and the rest on the workload, checks the answers into
// rec, and returns the end-to-end metrics other than setup_s.
func measure(st *stack, d *data, rng *rand.Rand, workload string, seconds time.Duration, conns int, rec *record) (map[string]metric, error) {
	rampWin := seconds / 3
	mainWin := seconds - rampWin
	runtime.GC() // the set-ups' garbage is not the search's to pay for
	rate, ramps := maxRate(st, d, rng, rampWin, conns)
	rec.Ramps = ramps

	p := runWorkload(st, d, rng, workload, mainWin, conns)
	if workload == "iot" {
		rec.OfferedRPS = iotRate
	}
	s := summarize(p.shots, deadline)
	fig, per := sliceFigures(p.shots, slices, deadline)
	rec.Summary, rec.Slices = s, per
	rec.AllocsPerRow, rec.GCPerKRow = p.allocsPerRow, p.gcPerKRow
	p.shots = nil
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)

	rec.check(s)
	if workload == "iot" {
		if err := rec.checkAccuracy(st, d, s, p.sent); err != nil {
			return nil, err
		}
	}
	return map[string]metric{
		"p50_ms":         {fig.P50, "ms"},
		"p90_ms":         {fig.P90, "ms"},
		"goodput":        {fig.Goodput, "share"},
		"accuracy":       {fig.Accuracy, "share"},
		"throughput_rps": {fig.Throughput, "rows/s"},
		"max_rate_rps":   {rate, "rows/s"},
		"heap_mb":        {float64(heap.HeapAlloc) / (1 << 20), "MiB"},
	}, nil
}

// record is the per-run record printed before the result line.
type record struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	HeldoutSeed int64   `json:"heldout_seed"`
	CPUs        int     `json:"cpus"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Conns       int     `json:"conns"`
	OfferedRPS  float64 `json:"offered_rps,omitempty"`

	Setup      []float64 `json:"setup_s_each"`
	SetupSteps []step    `json:"setup_steps_last"`

	Summary      summary   `json:"summary"`
	AllocsPerRow float64   `json:"allocs_per_row"`
	GCPerKRow    float64   `json:"gc_per_krow"`
	Slices       []figures `json:"slices"`
	Ramps        []float64 `json:"max_rate_ramps"`
	OfflineAcc   float64   `json:"offline_accuracy,omitempty"`
	Check        string    `json:"check_failure,omitempty"`
}

func newRecord(workload string, seed int64, conns int) record {
	return record{
		Workload: workload, Seed: seed, HeldoutSeed: heldoutSeed,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Conns: conns,
	}
}

// check fails the run on a broken answer or a failed request.
func (r *record) check(s summary) {
	switch {
	case s.Sent == 0:
		r.Check = "no requests sent"
	case s.Invalid > 0:
		r.Check = fmt.Sprintf("%d answers broke the output contract", s.Invalid)
	case s.Failed > 0:
		r.Check = fmt.Sprintf("%d requests failed; first: %s", s.Failed, s.FirstError)
	}
}

// checkAccuracy compares iot accuracy with the served model's offline
// accuracy on the rows the iot requests carried, computed with
// staged.Model.Predict through every stage.
func (r *record) checkAccuracy(st *stack, d *data, s summary, sent []int) error {
	m, err := st.offlineModel()
	if err != nil {
		return err
	}
	right := make([]bool, len(d.pool))
	for i, x := range d.pool {
		out := m.Predict(x, m.NumStages()-1)
		right[i] = out[len(out)-1].Pred == d.labels[i]
	}
	n := 0
	for _, row := range sent {
		if right[row] {
			n++
		}
	}
	r.OfflineAcc = share(n, len(sent))
	if acc := share(s.Correct, s.Rows); acc < r.OfflineAcc-accuracyMargin && r.Check == "" {
		r.Check = fmt.Sprintf("iot accuracy %.4f is more than %.2f below offline accuracy %.4f", acc, accuracyMargin, r.OfflineAcc)
	}
	return nil
}

// emit prints the record line and the result line, and turns a failed
// check into an error so the process exits non-zero.
func emit(rec record, res result) error {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("output check failed")
	}
	return nil
}
