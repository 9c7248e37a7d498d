package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"mps/internal/loadgen"
	"mps/internal/serve"
	"mps/internal/store"
)

// env is one in-process serve.Server behind a loopback listener, with the
// closed-loop HTTP client that drives it (at most 2 connections).
type env struct {
	srv      *serve.Server
	hs       *http.Server
	served   chan struct{}
	base     string
	client   *http.Client
	storeDir string
}

func startEnv(storeDir string) (*env, error) {
	cfg := serve.Config{}
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			return nil, err
		}
		cfg.Store = st
	}
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &env{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        2,
				MaxIdleConnsPerHost: 2,
				MaxConnsPerHost:     2,
				DisableCompression:  true,
			},
			Timeout: 2 * time.Minute,
		},
		storeDir: storeDir,
	}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // ErrServerClosed once close shuts it down
	}()
	return e, nil
}

// close stops the listener, drains background persists, stops the job
// scheduler, and removes the store directory.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The clients are idle by now; a drain that still times out leaves
	// the listener closed, which is all close needs.
	_ = e.hs.Shutdown(ctx)
	<-e.served
	e.client.CloseIdleConnections()
	e.srv.Flush()
	e.srv.Close()
	if e.storeDir != "" {
		_ = os.RemoveAll(e.storeDir) // the run directory is removed at exit too
	}
}

// do sends one request and reads the whole response into buf.
func (e *env) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// structureInfo is the part of a POST /v1/structures response the
// benchmark reads.
type structureInfo struct {
	Key        string  `json:"key"`
	Cached     bool    `json:"cached"`
	Placements int     `json:"placements"`
	Coverage   float64 `json:"coverage"`
}

// postStructure generates (or fetches) spec through POST /v1/structures.
func (e *env) postStructure(spec serve.GenerateSpec, buf *bytes.Buffer) (structureInfo, time.Duration, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return structureInfo{}, 0, err
	}
	t0 := time.Now()
	status, err := e.do(http.MethodPost, "/v1/structures", body, buf)
	el := time.Since(t0)
	if err != nil {
		return structureInfo{}, el, err
	}
	if status != http.StatusOK {
		return structureInfo{}, el, fmt.Errorf("POST /v1/structures %s: %d %s", spec.Circuit, status, bytes.TrimSpace(buf.Bytes()))
	}
	var info structureInfo
	if err := json.Unmarshal(buf.Bytes(), &info); err != nil {
		return structureInfo{}, el, err
	}
	return info, el, nil
}

// scrape reads the server's /metrics.
func (e *env) scrape() (*loadgen.Scrape, error) {
	var buf bytes.Buffer
	status, err := e.do(http.MethodGet, "/metrics", nil, &buf)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", status)
	}
	return loadgen.ParseProm(&buf)
}

// instantiate sends one deck request and checks the answer; it returns
// the client-observed latency and whether the request succeeded.
func (e *env) instantiate(r *request, buf *bytes.Buffer, t *tally) (time.Duration, bool) {
	t0 := time.Now()
	status, err := e.do(http.MethodPost, "/v1/instantiate", r.body, buf)
	el := time.Since(t0)
	switch {
	case err != nil:
		t.fail("instantiate: %v", err)
		return el, false
	case status != http.StatusOK:
		t.fail("instantiate: status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
		return el, false
	}
	if msg := verifyResponse(r, buf.Bytes()); msg != "" {
		t.fail("instantiate %s: %s", r.key, msg)
		return el, false
	}
	t.ok()
	return el, true
}

// sample is one read request: when it completed (offset from the phase
// start), its latency, and the queries it answered (0 when it failed).
type sample struct {
	end, lat time.Duration
	queries  int
}

// phase is what one timed closed-loop phase measured.
type phase struct {
	wall   time.Duration
	reads  []sample
	writes []time.Duration
	// queuedMax is the peak scheduler queue depth seen by the poller
	// (traced phases only).
	queuedMax int
}

func (ph phase) queries() int64 {
	var n int64
	for _, s := range ph.reads {
		n += int64(s.queries)
	}
	return n
}

func (ph phase) readLatencies() []time.Duration {
	out := make([]time.Duration, len(ph.reads))
	for i, s := range ph.reads {
		out[i] = s.lat
	}
	return out
}

// phaseWindows is how many equal windows a timed phase is cut into.
const phaseWindows = 20

// windowed reports read throughput and latency quantiles as medians over
// the phase's windows, so a slow spell on the shared machine moves a few
// windows rather than the run's figure.
func (ph phase) windowed() (qps, p50, p99 float64) {
	width := ph.wall / phaseWindows
	lats := make([][]float64, phaseWindows)
	queries := make([]float64, phaseWindows)
	for _, s := range ph.reads {
		w := min(int(s.end/width), phaseWindows-1)
		lats[w] = append(lats[w], float64(s.lat.Nanoseconds())/1e3)
		queries[w] += float64(s.queries)
	}
	var rates, q50, q99 []float64
	for w := range lats {
		if len(lats[w]) == 0 {
			continue
		}
		rates = append(rates, queries[w]/width.Seconds())
		q50 = append(q50, quantile(lats[w], 0.5))
		q99 = append(q99, quantile(lats[w], 0.99))
	}
	return median(rates), median(q50), median(q99)
}

// readClient runs a closed loop over the deck in a seeded order until
// the deadline.
func readClient(e *env, d *deck, order []int, start, deadline time.Time, t *tally) []sample {
	var buf bytes.Buffer
	out := make([]sample, 0, 1<<16)
	for i := 0; time.Now().Before(deadline); i++ {
		r := &d.reqs[order[i%len(order)]]
		el, ok := e.instantiate(r, &buf, t)
		s := sample{end: time.Since(start), lat: el}
		if ok {
			s.queries = len(r.queries)
		}
		out = append(out, s)
	}
	return out
}

// runPhase drives readers closed-loop clients over the deck (and an
// optional writer) for dur. With poll set it samples the scheduler's
// queue depth every millisecond.
func runPhase(e *env, d *deck, orders [][]int, dur time.Duration, writer func(deadline time.Time) []time.Duration, poll bool, t *tally) phase {
	var (
		ph phase
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for _, order := range orders {
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			reads := readClient(e, d, order, start, deadline, t)
			mu.Lock()
			ph.reads = append(ph.reads, reads...)
			mu.Unlock()
		}(order)
	}
	if writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.writes = writer(deadline)
		}()
	}
	stopPoll := func() int { return 0 }
	if poll {
		stopPoll = startPoller(e)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.queuedMax = stopPoll()
	return ph
}

// startPoller samples the job scheduler's queue depth every millisecond
// until the returned stop function is called; stop returns the peak.
func startPoller(e *env) (stop func() int) {
	done := make(chan struct{})
	peak := make(chan int)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		max := 0
		for {
			if q := e.srv.Jobs().Stats().Queued; q > max {
				max = q
			}
			select {
			case <-done:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() int {
		close(done)
		return <-peak
	}
}

// warm sends every deck request once, checking each answer.
func warm(e *env, d *deck, t *tally) {
	var buf bytes.Buffer
	for i := range d.reqs {
		e.instantiate(&d.reqs[i], &buf, t)
	}
}
