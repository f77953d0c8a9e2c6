package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"eugene/internal/cluster"
	"eugene/internal/core"
	"eugene/internal/dataset"
	"eugene/internal/service"
	"eugene/internal/staged"
	"eugene/internal/tensor"
)

// The served model and its data: the shape of benchtab's serving model
// (hidden 256, three stages of two blocks, 32 features), trained on a
// fixed synthetic task so every run serves the same weights.
const (
	modelName = "bench"
	dataSeed  = 17
	hidden    = 256
	blocks    = 2
	epochs    = 2
	trainRows = 240
	calibRows = 160
	poolRows  = 1024
)

var synth = dataset.SynthConfig{
	Classes: 4, Dim: 32, ModesPerClass: 2,
	TrainSize: trainRows, TestSize: calibRows + poolRows,
	NoiseLo: 0.4, NoiseHi: 1.0, Overlap: 0.1,
}

// serverConfig is what eugened runs with its flag defaults: the core
// defaults (workers 4, deadline 200 ms, queue 256, lookahead 1, default
// MaxBatch and intra-op parallelism, f64) with admission on, as
// eugened's -admission flag defaults to true.
func serverConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Admission = true
	return cfg
}

// data is the fixed task: the training and calibration sets and the
// pool of labelled rows that workloads draw their requests from.
type data struct {
	train, calib *dataset.Set
	pool         [][]float64
	labels       []int
}

func makeData() (*data, error) {
	train, test, err := dataset.SynthCIFAR(synth, dataSeed)
	if err != nil {
		return nil, err
	}
	d := &data{
		train: train,
		calib: &dataset.Set{
			X:      tensor.FromSlice(calibRows, synth.Dim, append([]float64(nil), test.X.Data[:calibRows*synth.Dim]...)),
			Labels: append([]int(nil), test.Labels[:calibRows]...),
		},
	}
	for i := calibRows; i < test.Len(); i++ {
		x, y := test.Sample(i)
		d.pool = append(d.pool, append([]float64(nil), x...))
		d.labels = append(d.labels, y)
	}
	return d, nil
}

// stack is one deployment: a replica (core.Service behind
// service.Server) and a cluster router fronting it, each on its own
// loopback listener, serving the trained, calibrated model.
type stack struct {
	svc       *core.Service
	router    *cluster.Router
	servers   []*http.Server
	serving   sync.WaitGroup
	routerURL string
	client    *http.Client
	// setup holds the seconds each set-up step took, in order.
	setup []step
}

type step struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"s"`
}

// newStack deploys and readies one stack: start the replica and the
// router, train, calibrate and fit the predictor through the router,
// wait until the replica holds the router's snapshot, and warm up. tr,
// when non-nil, wraps both HTTP handlers in tracing spans.
func newStack(d *data, conns int, tr *tracer) (st *stack, err error) {
	st = &stack{client: newClient(conns)}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	last := time.Now()
	mark := func(name string) {
		now := time.Now()
		st.setup = append(st.setup, step{name, now.Sub(last).Seconds()})
		last = now
	}

	if st.svc, err = core.NewService(serverConfig()); err != nil {
		return st, err
	}
	replicaURL, err := st.serve(tr.wrap(layerService, service.NewServer(st.svc)))
	if err != nil {
		return st, err
	}
	if st.router, err = cluster.New(cluster.Config{Nodes: []string{replicaURL}}); err != nil {
		return st, err
	}
	st.router.Start(context.Background())
	if st.routerURL, err = st.serve(tr.wrap(layerCluster, st.router)); err != nil {
		return st, err
	}
	mark("start")

	ctx := context.Background()
	admin := service.NewClient(st.routerURL)
	if _, err = admin.Train(ctx, modelName, service.TrainRequest{
		Data: service.FromSet(d.train), Classes: synth.Classes,
		Hidden: hidden, Blocks: blocks, Epochs: epochs, Seed: 1,
	}); err != nil {
		return st, fmt.Errorf("train: %w", err)
	}
	mark("train")
	if _, err = admin.Calibrate(ctx, modelName, d.calib); err != nil {
		return st, fmt.Errorf("calibrate: %w", err)
	}
	mark("calibrate")
	if err = admin.BuildPredictor(ctx, modelName, d.calib); err != nil {
		return st, fmt.Errorf("predictor: %w", err)
	}
	mark("predictor")
	if err = st.awaitReplicated(ctx, replicaURL); err != nil {
		return st, err
	}
	mark("replicate")
	if err = st.warmUp(d); err != nil {
		return st, fmt.Errorf("warm-up: %w", err)
	}
	mark("warm_up")
	return st, nil
}

// serve starts an HTTP server on a fresh loopback port with eugened's
// timeouts and returns its base URL.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      30 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	st.servers = append(st.servers, srv)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// awaitReplicated waits until the replica's snapshot version equals the
// version the router's store holds for the model.
func (st *stack) awaitReplicated(ctx context.Context, replicaURL string) error {
	routerC, replicaC := service.NewClient(st.routerURL), service.NewClient(replicaURL)
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		want, err := routerC.ModelVersion(ctx, modelName)
		if err != nil {
			continue
		}
		if got, err := replicaC.ModelVersion(ctx, modelName); err == nil && got == want {
			return nil
		}
	}
	return errors.New("replica never reached the router's snapshot version")
}

// warmUp sends a few hundred requests down every path the workloads
// use, so connections, pools, arenas and the admission forecast are
// live before anything is timed.
func (st *stack) warmUp(d *data) error {
	for i := 0; i < 100; i++ {
		body := inferBody(d.pool[i%len(d.pool)], deviceName(i))
		if r := st.postInfer(body, d.labels[i%len(d.labels)]); r.kind != kindOK {
			return fmt.Errorf("infer: %v", r.err)
		}
	}
	rows, labels := d.pool[:batchRows], d.labels[:batchRows]
	body := batchBody(rows)
	for i := 0; i < 4; i++ {
		if r := st.postBatch(body, labels); r.kind != kindOK || r.invalid {
			return fmt.Errorf("infer-batch: %v", r.err)
		}
	}
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if _, err := st.svc.Infer(ctx, modelName, d.pool[i%len(d.pool)]); err != nil {
			return fmt.Errorf("in-process infer: %w", err)
		}
	}
	return nil
}

// close stops the servers, the router and the service, and waits for
// the serving goroutines to end.
func (st *stack) close() {
	for _, srv := range st.servers {
		_ = srv.Close() // abandons open connections; nothing is in flight
	}
	st.serving.Wait()
	st.client.CloseIdleConnections()
	if st.router != nil {
		st.router.Close()
	}
	if st.svc != nil {
		st.svc.Close()
	}
}

// newClient is the load generator's HTTP client: at most conns
// connections, no compression.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 30 * time.Second,
	}
}

func deviceName(i int) string { return fmt.Sprintf("dev-%02d", i%devices) }

func inferBody(x []float64, device string) []byte {
	b, _ := json.Marshal(service.InferRequest{Input: x, Device: device}) // floats and a string always encode
	return b
}

func batchBody(rows [][]float64) []byte {
	b, _ := json.Marshal(service.InferBatchRequest{Inputs: rows}) // floats always encode
	return b
}

// post sends one JSON body to the router and decodes a 200 answer into
// out. It returns the reply kind for non-200 statuses and errors.
func (st *stack) post(path string, body []byte, out any) (kind, error) {
	resp, err := st.client.Post(st.routerURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return kindFailed, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return kindFailed, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.Unmarshal(raw, out); err != nil {
			return kindFailed, fmt.Errorf("decoding answer: %w", err)
		}
		return kindOK, nil
	case http.StatusTooManyRequests:
		return kindRejected, errors.New(string(raw))
	default:
		return kindFailed, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
}

// postInfer sends one 1-row infer body through the router.
func (st *stack) postInfer(body []byte, label int) reply {
	var out service.InferResponse
	k, err := st.post("/v1/models/"+modelName+"/infer", body, &out)
	r := reply{kind: k, rows: 1, err: err}
	if k == kindOK {
		r.add(out.Stages, out.Pred, out.Expired, label)
	}
	return r
}

// postBatch sends one infer-batch body through the router.
func (st *stack) postBatch(body []byte, labels []int) reply {
	var out service.InferBatchResponse
	k, err := st.post("/v1/models/"+modelName+"/infer-batch", body, &out)
	r := reply{kind: k, rows: len(labels), err: err}
	if k != kindOK {
		return r
	}
	if len(out.Results) != len(labels) {
		r.invalid = true
		r.err = fmt.Errorf("%d results for %d rows", len(out.Results), len(labels))
		return r
	}
	for i, res := range out.Results {
		r.add(res.Stages, res.Pred, res.Expired, labels[i])
	}
	return r
}

// offlineModel returns a private copy of the served model.
func (st *stack) offlineModel() (*staged.Model, error) {
	e, err := st.svc.Entry(modelName)
	if err != nil {
		return nil, err
	}
	return e.Model.Clone(), nil
}
