package main

// The traced run's per-layer measurements. Every layer is timed from
// outside, through its public function or the server's /metrics
// endpoint; nothing here reaches inside the program.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"mps"
	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/loadgen"
	"mps/internal/obs"
	"mps/internal/serve"
	"mps/internal/store"
)

// probeRequests is how many deck requests each request-level probe runs.
const probeRequests = 256

// probeCalls is how many calls each spec-level probe makes.
const probeCalls = 2000

// values holds a run's metrics by name.
type values map[string]float64

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// servedRoutes are the routes a workload's client traffic uses.
var servedRoutes = []string{"instantiate", "structures"}

// stageLayers attributes a phase's server time from a /metrics diff:
// per-request stage time, the residual no stage claims, the client-side
// overhead on top of server time, and the cache/generation counters.
// clientLat holds every client-observed request latency of the phase.
func stageLayers(diff *loadgen.Scrape, clientLat []time.Duration, v values) {
	var reqs, serverSec float64
	for _, rt := range servedRoutes {
		sel := map[string]string{"route": rt}
		reqs += diff.Sum("mps_http_requests_total", sel)
		serverSec += diff.Sum("mps_http_request_duration_seconds_sum", sel)
	}
	if reqs == 0 {
		reqs = 1
	}
	// forward and fetch are cluster stages: a single node never records
	// them, so they enter the sum but are not reported.
	var stageSec float64
	for _, st := range obs.Stages() {
		sec := diff.Sum("mps_stage_duration_seconds_total", map[string]string{"stage": st.String()})
		stageSec += sec
		if st != obs.StageForward && st != obs.StageFetch {
			v["serve.stage."+st.String()+"_us"] = sec * 1e6 / reqs
		}
	}
	v["serve.unattributed_us"] = (serverSec - stageSec) * 1e6 / reqs
	v["http.client_overhead_us"] = mean(micros(clientLat)) - serverSec*1e6/reqs
	v["serve.cache_evictions"] = diff.Sum("mps_cache_evictions_total", nil)
	v["serve.gen_runs"] = diff.Sum("mps_generation_runs_total", nil)
}

// runtimeLayers reports allocation and GC cost between two samples.
func runtimeLayers(before, after runtimeSample, queries int64, v values) {
	if queries < 1 {
		queries = 1
	}
	v["runtime.allocs_per_query"] = float64(after.allocs-before.allocs) / float64(queries)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		v["runtime.gc_cpu_fraction"] = (after.gcCPU - before.gcCPU) / cpu
	} else {
		v["runtime.gc_cpu_fraction"] = 0
	}
}

// probeServe times the serving layers in-process on the workload's own
// request bodies: the whole handler through an httptest recorder, spec
// resolution on a cached spec, circuit lookup, and strict JSON decode and
// encode of exported mirrors of the request and response.
func probeServe(srv *serve.Server, d *deck, specs []serve.GenerateSpec, v values, t *tally) {
	srv.Flush() // no background persist may allocate during the probe
	h := srv.Handler()
	reqs := make([]*http.Request, probeRequests)
	recs := make([]*httptest.ResponseRecorder, probeRequests)
	for k := range reqs {
		r := &d.reqs[k%len(d.reqs)]
		reqs[k] = httptest.NewRequest(http.MethodPost, "/v1/instantiate", bytes.NewReader(r.body))
		recs[k] = httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for k := range reqs {
		h.ServeHTTP(recs[k], reqs[k])
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	for k, rec := range recs {
		r := &d.reqs[k%len(d.reqs)]
		msg := verifyResponse(r, rec.Body.Bytes())
		t.check(rec.Code == http.StatusOK && msg == "", "handler probe: status %d: %s", rec.Code, msg)
	}
	v["serve.handler_us"] = us(el) / probeRequests
	v["serve.handler_allocs"] = float64(m1.Mallocs-m0.Mallocs) / probeRequests

	t0 = time.Now()
	for k := 0; k < probeCalls; k++ {
		if _, err := srv.Generate(specs[k%len(specs)]); err != nil {
			t.fail("spec resolve: %v", err)
			break
		}
	}
	v["serve.spec_resolve_us"] = us(time.Since(t0)) / probeCalls

	t0 = time.Now()
	for k := 0; k < probeCalls; k++ {
		if _, err := circuits.ByName(specs[k%len(specs)].Circuit); err != nil {
			t.fail("circuits.ByName: %v", err)
			break
		}
	}
	v["circuits.by_name_us"] = us(time.Since(t0)) / probeCalls

	t0 = time.Now()
	for k := 0; k < probeRequests; k++ {
		var w wireRequest
		dec := json.NewDecoder(bytes.NewReader(d.reqs[k%len(d.reqs)].body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&w); err != nil {
			t.fail("decode probe: %v", err)
			break
		}
	}
	v["serve.decode_us"] = us(time.Since(t0)) / probeRequests

	resps := make([]any, len(d.reqs))
	for i := range d.reqs {
		r := &d.reqs[i]
		results := make([]wireResult, len(r.want))
		for j, a := range r.want {
			results[j] = wireResult{X: a.X, Y: a.Y, PlacementID: a.PlacementID, Member: a.Member, FromBackup: a.FromBackup}
		}
		resps[i] = map[string]any{"key": r.key, "served": len(results), "results": results}
	}
	t0 = time.Now()
	for k := 0; k < probeRequests; k++ {
		if err := json.NewEncoder(io.Discard).Encode(resps[k%len(resps)]); err != nil {
			t.fail("encode probe: %v", err)
			break
		}
	}
	v["serve.encode_us"] = us(time.Since(t0)) / probeRequests
}

// coreReps repeats each per-query core call so timer overhead stays small
// next to sub-microsecond lookups.
const coreReps = 8

// probeCore times the query layers on the deck's queries through the
// library: the batch engine per request, the compiled index per query
// (split by covered and backup outcome), and portfolio routing.
func probeCore(arts []*artifact, d *deck, v values) {
	t0 := time.Now()
	for k := 0; k < probeRequests; k++ {
		r := &d.reqs[k%len(d.reqs)]
		arts[r.art].batch(r.queries)
	}
	v["mps.batch_us"] = us(time.Since(t0)) / probeRequests

	var (
		res               core.Result
		covered, backup   time.Duration
		nCovered, nBackup int
		route             time.Duration
		nRoute            int
	)
	// The oracle answered every deck query without error when the deck
	// was built, so the timed calls below drop their errors.
	for i := range d.reqs {
		r := &d.reqs[i]
		a := arts[r.art]
		for j, q := range r.queries {
			var cs *core.CompiledStructure
			if a.p != nil {
				m := r.want[j].Member
				if m < 0 {
					m = 0 // the backup answers through member 0
				}
				cs = core.Compile(a.p.Member(m))
				t0 := time.Now()
				for rep := 0; rep < coreReps; rep++ {
					_, _ = a.p.RouteWeighted(q.Weights, q.Ws, q.Hs)
				}
				route += time.Since(t0)
				nRoute++
			} else {
				cs = a.s.Compiled()
			}
			t0 := time.Now()
			for rep := 0; rep < coreReps; rep++ {
				_ = cs.InstantiateInto(&res, q.Ws, q.Hs)
			}
			el := time.Since(t0)
			if res.FromBackup {
				backup += el
				nBackup++
			} else {
				covered += el
				nCovered++
			}
		}
	}
	perOp := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n*coreReps)
	}
	v["core.covered_ns"] = perOp(covered, nCovered)
	v["core.backup_ns"] = perOp(backup, nBackup)
	v["portfolio.route_ns"] = perOp(route, nRoute)
	v["core.covered_share"] = float64(nCovered) / float64(nCovered+nBackup)
	v["portfolio.member_routed_share"] = 0
	if d.portfolioQs > 0 {
		v["portfolio.member_routed_share"] = float64(d.routed) / float64(d.portfolioQs)
	}
}

// countingEval wraps a cost evaluator, counting and timing every call.
type countingEval struct {
	inner cost.Evaluator
	n     atomic.Int64
	ns    atomic.Int64
}

func (c *countingEval) Cost(l *cost.Layout) float64 {
	t0 := time.Now()
	v := c.inner.Cost(l)
	c.ns.Add(int64(time.Since(t0)))
	c.n.Add(1)
	return v
}

// probeGen regenerates every structure of arts member by member through
// mps.Run, once with a counting evaluator passed through
// Options.Evaluator and once without, and times the codec and store
// layers on the result. Both runs must reproduce the reference structure:
// the wrapper may not change what generation builds.
func probeGen(arts []*artifact, dir string, v values, t *tally) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var (
		run, plain, evalTime    time.Duration
		compile, encode, decode time.Duration
		put, get                time.Duration
		evals                   int64
		iters, accepted, died   int
	)
	for _, a := range arts {
		req, err := facadeRequest(a.spec)
		if err != nil {
			return err
		}
		refs := a.members()
		for i, mreq := range memberRequests(req) {
			ev := &countingEval{inner: cost.DefaultWeights}
			if !mreq.Weights.IsZero() {
				ev.inner = mreq.Weights.Canonical()
			}
			wreq := mreq
			wreq.Options.Evaluator = ev
			t0 := time.Now()
			wres, err := mps.Run(context.Background(), wreq)
			run += time.Since(t0)
			if err != nil {
				return err
			}
			t0 = time.Now()
			pres, err := mps.Run(context.Background(), mreq)
			plain += time.Since(t0)
			if err != nil {
				return err
			}
			s, ref := wres.Structure, refs[i]
			t.check(s.NumPlacements() == pres.Structure.NumPlacements() && s.Coverage() == pres.Structure.Coverage(),
				"evaluator wrapper changed %s member %d: %d placements / %g coverage, unwrapped %d / %g",
				a.spec.Circuit, i, s.NumPlacements(), s.Coverage(), pres.Structure.NumPlacements(), pres.Structure.Coverage())
			t.check(s.NumPlacements() == ref.NumPlacements() && s.Coverage() == ref.Coverage(),
				"%s member %d regenerated alone: %d placements / %g coverage, reference %d / %g",
				a.spec.Circuit, i, s.NumPlacements(), s.Coverage(), ref.NumPlacements(), ref.Coverage())
			stats := wres.Stats[0]
			iters += stats.Iterations
			accepted += stats.Accepted
			died += stats.CandidatesDied
			evals += ev.n.Load()
			evalTime += time.Duration(ev.ns.Load())

			// Compile a structure decoded from the v2 codec, which carries
			// no compiled tables, so the index is built from scratch.
			var v2 bytes.Buffer
			if err := s.SaveBinary(&v2); err != nil {
				return err
			}
			fresh, err := core.Load(bytes.NewReader(v2.Bytes()), s.Circuit())
			if err != nil {
				return err
			}
			t0 = time.Now()
			core.Compile(fresh)
			compile += time.Since(t0)

			var v3 bytes.Buffer
			s.Compiled() // time the encode alone, not the first compile
			t0 = time.Now()
			err = s.SaveBinaryCompiled(&v3)
			encode += time.Since(t0)
			if err != nil {
				return err
			}
			t0 = time.Now()
			_, err = core.Load(bytes.NewReader(v3.Bytes()), s.Circuit())
			decode += time.Since(t0)
			if err != nil {
				return err
			}

			key := fmt.Sprintf("probe|%s|%d", a.spec.Circuit, i)
			t0 = time.Now()
			_, err = st.Put(store.Meta{Key: key, Circuit: a.spec.Circuit, Seed: mreq.Options.Seed}, s.Structure)
			put += time.Since(t0)
			if err != nil {
				return err
			}
			t0 = time.Now()
			_, _, err = st.Get(key, s.Circuit())
			get += time.Since(t0)
			if err != nil {
				return err
			}
		}
	}
	v["gen.run_ms"] = ms(run)
	v["cost.evals"] = float64(evals)
	v["cost.eval_ms"] = ms(evalTime)
	v["gen.search_ms"] = ms(run - evalTime)
	v["explorer.iterations"] = float64(iters)
	v["explorer.accept_ratio"] = float64(accepted) / float64(max(iters, 1))
	v["explorer.died_ratio"] = float64(died) / float64(max(iters, 1))
	v["core.compile_ms"] = ms(compile)
	v["core.encode_ms"] = ms(encode)
	v["core.decode_ms"] = ms(decode)
	v["store.put_ms"] = ms(put)
	v["store.get_ms"] = ms(get)
	v["trace.overhead.gen_run_ms"] = ms(run - plain)
	return nil
}
