// Package servebench holds the micro-benchmark ops for a served placement
// request: the whole /v1/instantiate handler (body read, JSON decode, spec
// resolution or key lookup, batch slot, instantiate, encode, and the
// instrumentation epilogue) run in process through Server.Handler() with
// an httptest recorder. cmd/mpsbench passes them to experiments.RunMicro,
// which cannot import internal/serve itself: the root package's tests
// import internal/experiments, and serve imports the root package.
package servebench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"mps/internal/circuits"
	"mps/internal/experiments"
	"mps/internal/serve"
)

// Ops returns the served-request ops:
//
//   - serve_instantiate/spec_1 addresses the structure by inline spec with
//     one mid-range query — the sizing-loop request, where per-request
//     work (decode, spec resolution, encode) dominates.
//   - serve_instantiate/key_64 addresses it by cache key with 64 seeded
//     in-range queries — the batch request, where per-query decode,
//     instantiation and encode dominate.
//
// Both run against one quick circ01 structure generated before timing.
// The server runs each batch on one worker and retains no traces, so
// allocs/op does not depend on GOMAXPROCS or on which trace IDs a run
// happens to sample, and the exact allocation gate holds across machines.
func Ops(seed int64) ([]experiments.MicroOp, error) {
	srv := serve.New(serve.Config{Workers: 1, TraceSlow: -1, TraceSample: -1})
	spec := serve.GenerateSpec{Circuit: "circ01", Seed: seed, Effort: "quick", Iterations: 20, BDIOSteps: 40}
	info, err := srv.Generate(spec)
	// The structure is cached; instantiate traffic needs no job scheduler.
	srv.Close()
	if err != nil {
		return nil, fmt.Errorf("servebench: generating %s: %w", spec.Circuit, err)
	}
	c := circuits.MustByName(spec.Circuit)
	type query struct {
		Ws []int `json:"ws"`
		Hs []int `json:"hs"`
	}
	mid := query{Ws: make([]int, c.N()), Hs: make([]int, c.N())}
	for i, b := range c.Blocks {
		mid.Ws[i], mid.Hs[i] = (b.WMin+b.WMax)/2, (b.HMin+b.HMax)/2
	}
	rng := rand.New(rand.NewSource(seed))
	batch := make([]query, 64)
	for q := range batch {
		batch[q] = query{Ws: make([]int, c.N()), Hs: make([]int, c.N())}
		for i, b := range c.Blocks {
			batch[q].Ws[i] = b.WMin + rng.Intn(b.WMax-b.WMin+1)
			batch[q].Hs[i] = b.HMin + rng.Intn(b.HMax-b.HMin+1)
		}
	}
	specBody, err := json.Marshal(map[string]any{"spec": spec, "queries": []query{mid}})
	if err != nil {
		return nil, err
	}
	keyBody, err := json.Marshal(map[string]any{"key": info.Key, "queries": batch})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	// Check each request answers before it is timed, so an op can never
	// benchmark an error path.
	for _, body := range [][]byte{specBody, keyBody} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/instantiate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("servebench: probe request answered %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	op := func(body []byte) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/instantiate", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		}
	}
	return []experiments.MicroOp{
		{Name: "serve_instantiate/spec_1", Fn: op(specBody)},
		{Name: "serve_instantiate/key_64", Fn: op(keyBody)},
	}, nil
}
