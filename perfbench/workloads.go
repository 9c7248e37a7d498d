package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"mps"
	"mps/internal/serve"
	"mps/internal/store"
)

// setupRuns is how many times a serving run sets its workload up;
// setup_s is the median.
const setupRuns = 5

// genSetupRuns is setupRuns for generate. Its setup is a ~0.15 s quick
// round, and a few of those span under a second of a shared machine
// whose speed swings by ~20% from one second to the next.
const genSetupRuns = 15

// runConfig is one benchmark invocation.
type runConfig struct {
	seed    int64
	dur     time.Duration
	trace   bool
	workDir string // scratch directory inside the checkout
	log     io.Writer
}

// report is what a workload run measured.
type report struct {
	values values
	tally  *tally
}

// workload is one named traffic mix.
type workload struct {
	name string
	// procs is the GOMAXPROCS the workload runs with. A sequential caller
	// gets one P, shared by the program under test, the client and the
	// loopback network: with two, every ~100 µs request hands a goroutine
	// to the other P and wakes an idle vCPU, and how fast a shared host
	// schedules those wake-ups swung sizing_loop's throughput by ~20%
	// between runs, against 2-7% on one P with one client. batch_sweep
	// keeps both Ps, as the batch engine fans each request out over
	// workers, and churn needs them for its reader beside its writer.
	procs int
	run   func(rc runConfig) (*report, error)
}

var workloads = []workload{
	{"sizing_loop", 1, func(rc runConfig) (*report, error) {
		return runServing(rc, servingConfig{
			specs:   hotSpecs(),
			deck:    deckSpec{requests: 1024, batch: 1, only: -1},
			readers: 1,
		})
	}},
	{"batch_sweep", 2, func(rc runConfig) (*report, error) {
		return runServing(rc, servingConfig{
			specs:   hotSpecs(),
			deck:    deckSpec{requests: 128, batch: 64, byKey: true, weighted: true, only: -1},
			readers: 2,
		})
	}},
	{"generate", 1, runGenerate},
	// churn is run by hand, not listed in BENCHMARK.json: its read figures
	// drift within a run as every write grows the store, so its run-to-run
	// spread exceeds the bounds (measured spreads in README.md).
	{"churn", 2, func(rc runConfig) (*report, error) {
		// The hot key is the hot set's portfolio: reads route across
		// members while the writer churns the LRU around it.
		return runServing(rc, servingConfig{
			specs:   hotSpecs(),
			deck:    deckSpec{requests: 512, batch: 1, byKey: true, only: 3},
			readers: 1,
			churn:   true,
		})
	}},
}

// servingConfig shapes a serving workload.
type servingConfig struct {
	specs   []serve.GenerateSpec // hot set, generated during setup
	deck    deckSpec
	readers int
	// churn runs a store-backed server and a writer client that POSTs a
	// fresh quick-effort spec per request beside the readers.
	churn bool
}

// runServing runs a closed-loop serving workload against an in-process
// serve.Server behind a loopback listener.
func runServing(rc runConfig, sc servingConfig) (*report, error) {
	t := &tally{}
	rng := rand.New(rand.NewSource(rc.seed))

	// The oracle: the hot set regenerated through the library facade.
	arts := make([]*artifact, len(sc.specs))
	for i, g := range sc.specs {
		a, err := generate(g)
		if err != nil {
			return nil, err
		}
		arts[i] = a
	}

	// Each setup: server start, the hot set generated through POST
	// /v1/structures (specLat[i] collects spec i's latency), and a warm
	// pass over the deck. The last setup's server is the one measured.
	var (
		d       *deck
		keys    []string
		live    *env
		took    []time.Duration
		specLat = make([][]time.Duration, len(sc.specs))
	)
	for s := 0; s < setupRuns; s++ {
		storeDir := ""
		if sc.churn {
			storeDir = filepath.Join(rc.workDir, fmt.Sprintf("store-%d", s))
		}
		t0 := time.Now()
		e, err := startEnv(storeDir)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		got := make([]string, len(sc.specs))
		for i, g := range sc.specs {
			info, el, err := e.postStructure(g, &buf)
			if err != nil {
				e.close()
				return nil, err
			}
			specLat[i] = append(specLat[i], el)
			got[i] = info.Key
			checkServed(t, arts[i], info)
		}
		// Building the deck is the benchmark's own preparation: it needs
		// the served keys, so it happens inside the first setup, off the
		// setup clock.
		prep := time.Now()
		if d == nil {
			keys = got
			if d, err = buildDeck(rng, arts, keys, sc.deck); err != nil {
				e.close()
				return nil, err
			}
		} else {
			t.check(slices.Equal(got, keys), "setup %d served keys %v, first setup %v", s, got, keys)
		}
		prepTook := time.Since(prep)
		warm(e, d, t)
		took = append(took, time.Since(t0)-prepTook)
		if s < setupRuns-1 {
			e.close()
		} else {
			live = e
		}
	}
	defer live.close()

	orders := make([][]int, sc.readers)
	for c := range orders {
		orders[c] = rng.Perm(len(d.reqs))
	}
	var (
		w       *writer
		writeFn func(time.Time) []time.Duration
	)
	if sc.churn {
		w = &writer{e: live, base: rng.Int63n(1 << 30), t: t}
		writeFn = w.run
	}

	ph := runPhase(live, d, orders, rc.dur, writeFn, false, t)

	v := values{}
	fmt.Fprintf(rc.log, "setups %v\n", took)
	v["setup_s"] = median(seconds(took))
	v["generate_s"], v["gen_latency_p50_ms"] = specSetTimes(specLat)
	if sc.churn {
		v["gen_latency_p50_ms"] = median(millis(ph.writes))
	}
	v["queries_per_s"], v["latency_p50_us"], v["latency_p99_us"] = ph.windowed()
	v["stored_share"] = d.storedShare()
	v["answer_cost"] = d.answerCost()
	v["coverage"] = meanCoverage(arts)

	if rc.trace {
		before, err := live.scrape()
		if err != nil {
			return nil, err
		}
		rt0 := readRuntime()
		tph := runPhase(live, d, orders, rc.dur, writeFn, true, t)
		rt1 := readRuntime()
		after, err := live.scrape()
		if err != nil {
			return nil, err
		}
		stageLayers(after.Sub(before), append(tph.readLatencies(), tph.writes...), v)
		runtimeLayers(rt0, rt1, tph.queries(), v)
		v["jobs.queued_max"] = float64(tph.queuedMax)
		qps, p50, _ := tph.windowed()
		v["trace.overhead.latency_p50_us"] = p50 - v["latency_p50_us"]
		v["trace.overhead.queries_per_s"] = qps - v["queries_per_s"]
		probeServe(live.srv, d, sc.specs, v, t)
		probeCore(arts, d, v)
		if err := probeGen(arts, filepath.Join(rc.workDir, "probe-store"), v, t); err != nil {
			return nil, err
		}
	}
	if w != nil {
		w.verify()
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	v["peak_rss_mb"] = rss
	return &report{values: v, tally: t}, nil
}

// specSetTimes summarizes a spec set's generation times, perSpec[i]
// holding spec i's time in every repetition, from each spec's median: the
// set's wall time (their sum, in seconds) and a typical spec's latency
// (their median, in ms). One slow repetition of one spec moves neither.
func specSetTimes(perSpec [][]time.Duration) (setSeconds, specMillis float64) {
	medians := make([]float64, len(perSpec))
	for i, ds := range perSpec {
		medians[i] = median(seconds(ds))
		setSeconds += medians[i]
	}
	return setSeconds, median(medians) * 1e3
}

// checkServed compares a served structure's summary with the oracle's.
func checkServed(t *tally, a *artifact, info structureInfo) {
	ok := info.Placements == a.placements()
	if a.s != nil {
		ok = ok && info.Coverage == a.stats[0].FinalCoverage
	}
	t.check(ok, "served %s: %d placements / %g coverage, oracle %d placements",
		a.spec.Circuit, info.Placements, info.Coverage, a.placements())
}

// writer is churn's write client: closed-loop POST /v1/structures of a
// fresh quick-effort spec per request, alternating circ01 and
// TwoStageOpamp, seeds counting up from a seeded base.
type writer struct {
	e    *env
	base int64
	next int
	t    *tally
	// first keeps the first few written specs and what the server said
	// about them, checked against the library afterwards.
	first []writtenSpec
}

type writtenSpec struct {
	spec serve.GenerateSpec
	info structureInfo
}

const verifiedWrites = 3

func (w *writer) spec(i int) serve.GenerateSpec {
	circuit := "circ01"
	if i%2 == 1 {
		circuit = "TwoStageOpamp"
	}
	return serve.GenerateSpec{Circuit: circuit, Seed: w.base + int64(i), Effort: "quick"}
}

func (w *writer) run(deadline time.Time) []time.Duration {
	var buf bytes.Buffer
	var lat []time.Duration
	for time.Now().Before(deadline) {
		lat = append(lat, w.write(&buf))
	}
	return lat
}

// write POSTs the next fresh spec and returns its latency.
func (w *writer) write(buf *bytes.Buffer) time.Duration {
	g := w.spec(w.next)
	w.next++
	info, el, err := w.e.postStructure(g, buf)
	if err != nil {
		w.t.fail("churn write: %v", err)
		return el
	}
	ok := w.t.check(!info.Cached && info.Placements > 0, "churn write %s seed %d: cached=%v placements=%d",
		g.Circuit, g.Seed, info.Cached, info.Placements)
	if ok && len(w.first) < verifiedWrites {
		w.first = append(w.first, writtenSpec{g, info})
	}
	return el
}

// verify regenerates the first written specs through the library and
// checks the server built the same structures.
func (w *writer) verify() {
	for _, ws := range w.first {
		a, err := generate(ws.spec)
		if err != nil {
			w.t.fail("churn verify: %v", err)
			continue
		}
		checkServed(w.t, a, ws.info)
	}
}

// genRound is one pass over the generation spec set.
type genRound struct {
	mem     []*artifact // as generated
	back    []*artifact // read back from the store
	perSpec []time.Duration
	wall    time.Duration
}

// runRound generates every spec through mps.Run, writes each structure
// with store.Put and reads it back with store.Get.
func runRound(specs []serve.GenerateSpec, st *store.Dir) (genRound, error) {
	var r genRound
	start := time.Now()
	for _, g := range specs {
		t0 := time.Now()
		a, err := generate(g)
		if err != nil {
			return r, err
		}
		b, err := roundTrip(st, a)
		if err != nil {
			return r, err
		}
		r.perSpec = append(r.perSpec, time.Since(t0))
		r.mem = append(r.mem, a)
		r.back = append(r.back, b)
	}
	r.wall = time.Since(start)
	return r, nil
}

// roundTrip persists every member of a and loads the artifact back.
func roundTrip(st *store.Dir, a *artifact) (*artifact, error) {
	members := a.members()
	loaded := make([]*mps.Structure, len(members))
	for i, m := range members {
		key := fmt.Sprintf("generate|%s|%s|%d|m%d", a.spec.Circuit, a.spec.Backend, a.spec.Portfolio, i)
		if _, err := st.Put(store.Meta{Key: key, Circuit: a.spec.Circuit, Seed: a.spec.Seed}, m); err != nil {
			return nil, err
		}
		s, _, err := st.Get(key, m.Circuit())
		if err != nil {
			return nil, err
		}
		loaded[i] = &mps.Structure{Structure: s}
		loaded[i].SetBackupKind(mps.BackupSlicingTree)
	}
	b := &artifact{spec: a.spec, ids: a.ids, stats: a.stats}
	if a.p == nil {
		b.s = loaded[0]
		return b, nil
	}
	p, err := mps.NewPortfolioWeighted(loaded, a.p.MemberWeights())
	if err != nil {
		return nil, err
	}
	b.p = p
	return b, nil
}

// readPasses is how often each round answers the generate deck.
const readPasses = 16

// readBack answers every deck query readPasses times, one at a time
// through the facade (Structure.Instantiate, Portfolio.Instantiate or
// InstantiateWeighted), on the artifacts read back from the store: a
// sizing loop linking the library, waiting for each placement. Each
// query is timed alone, so the rare stall of a shared machine lands on
// a rare query instead of on every batch it overlaps. busy is the sum of
// the query times.
func readBack(back []*artifact, d *deck, t *tally) (reads []time.Duration, busy time.Duration) {
	reads = make([]time.Duration, 0, readPasses*d.total)
	for pass := 0; pass < readPasses; pass++ {
		for i := range d.reqs {
			req := &d.reqs[i]
			a := back[req.art]
			for j, q := range req.queries {
				t0 := time.Now()
				got, err := a.oracle(q)
				el := time.Since(t0)
				reads = append(reads, el)
				busy += el
				if err != nil || !got.equal(req.want[j]) {
					t.fail("%s read back from store: query %d: got %+v (err %v), reference %+v",
						a.spec.Circuit, j, got, err, req.want[j])
					continue
				}
				t.ok()
			}
		}
	}
	return reads, busy
}

// genPhase is what one timed generate phase measured.
type genPhase struct {
	rounds []time.Duration
	// perSpec[i] holds spec i's time in every round.
	perSpec [][]time.Duration
	reads   []time.Duration
	// roundRates holds each round's read throughput, queries per second.
	roundRates []float64
}

// genReference is the first round's output: the structures every later
// round must reproduce and the deck they are queried with.
type genReference struct {
	arts []*artifact
	deck *deck
}

// generateLoop runs rounds until dur has passed (at least one). After
// each round the artifacts read back from the store answer the deck
// (readBack), checked against the reference.
func generateLoop(specs []serve.GenerateSpec, st *store.Dir, dur time.Duration, rng *rand.Rand, ref *genReference, t *tally) (genPhase, error) {
	var ph genPhase
	deadline := time.Now().Add(dur)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		round, err := runRound(specs, st)
		if err != nil {
			return ph, err
		}
		ph.rounds = append(ph.rounds, round.wall)
		if ph.perSpec == nil {
			ph.perSpec = make([][]time.Duration, len(specs))
		}
		for i, d := range round.perSpec {
			ph.perSpec[i] = append(ph.perSpec[i], d)
		}
		if ref.arts == nil {
			ref.arts = round.mem
			if ref.deck, err = buildDeck(rng, ref.arts, nil, deckSpec{requests: 48, batch: 64, weighted: true, only: -1}); err != nil {
				return ph, err
			}
		}
		for i, a := range round.mem {
			want := ref.arts[i]
			t.check(a.placements() == want.placements() && meanCoverage([]*artifact{a}) == meanCoverage([]*artifact{want}),
				"%s regenerated to %d placements, first round %d", a.spec.Circuit, a.placements(), want.placements())
		}
		// Collect the round's garbage, then hold the collector off while
		// the reads run, so their tail does not time the generator's heap;
		// the traced run counts the reads' own allocations.
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		reads, busy := readBack(round.back, ref.deck, t)
		debug.SetGCPercent(gcPercent)
		ph.reads = append(ph.reads, reads...)
		ph.roundRates = append(ph.roundRates, float64(len(reads))/busy.Seconds())
	}
	return ph, nil
}

// runGenerate is the offline generation workload: library only, no
// server, sequential.
func runGenerate(rc runConfig) (*report, error) {
	t := &tally{}
	rng := rand.New(rand.NewSource(rc.seed))
	specs := generateSpecs()

	// Setup: a fresh store and a quick-effort round of the same spec set,
	// which also warms the generation code paths.
	var took []time.Duration
	for s := 0; s < genSetupRuns; s++ {
		t0 := time.Now()
		dir := filepath.Join(rc.workDir, fmt.Sprintf("setup-%d", s))
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		if _, err := runRound(withEffort(specs, "quick"), st); err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	st, err := store.Open(filepath.Join(rc.workDir, "store"))
	if err != nil {
		return nil, err
	}
	ref := &genReference{}
	ph, err := generateLoop(specs, st, rc.dur, rng, ref, t)
	if err != nil {
		return nil, err
	}

	v := values{}
	v["setup_s"] = median(seconds(took))
	v["generate_s"], v["gen_latency_p50_ms"] = specSetTimes(ph.perSpec)
	fmt.Fprintf(rc.log, "setups %v, rounds %v\n", took, ph.rounds)
	v["queries_per_s"] = median(ph.roundRates)
	readLat := micros(ph.reads)
	v["latency_p50_us"] = quantile(readLat, 0.5)
	v["latency_p99_us"] = quantile(readLat, 0.99)
	v["stored_share"] = ref.deck.storedShare()
	v["answer_cost"] = ref.deck.answerCost()
	v["coverage"] = meanCoverage(ref.arts)

	if rc.trace {
		rt0 := readRuntime()
		tph, err := generateLoop(specs, st, rc.dur, rng, ref, t)
		if err != nil {
			return nil, err
		}
		rt1 := readRuntime()
		runtimeLayers(rt0, rt1, int64(len(tph.reads)), v)
		v["trace.overhead.latency_p50_us"] = quantile(micros(tph.reads), 0.5) - v["latency_p50_us"]
		v["trace.overhead.queries_per_s"] = median(tph.roundRates) - v["queries_per_s"]
		if err := probeGenerateServing(rc, specs, ref, rng, v, t); err != nil {
			return nil, err
		}
		probeCore(ref.arts, ref.deck, v)
		if err := probeGen(ref.arts, filepath.Join(rc.workDir, "probe-store"), v, t); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	v["peak_rss_mb"] = rss
	return &report{values: v, tally: t}, nil
}

// probeGenerateServing measures the serving layers on generate's
// artifacts, which its timed phase never serves: a probe server
// generates the spec set through POST /v1/structures (checked against
// the reference) and answers a key-addressed deck over them once.
func probeGenerateServing(rc runConfig, specs []serve.GenerateSpec, ref *genReference, rng *rand.Rand, v values, t *tally) error {
	e, err := startEnv("")
	if err != nil {
		return err
	}
	defer e.close()
	before, err := e.scrape()
	if err != nil {
		return err
	}
	stop := startPoller(e)
	var buf bytes.Buffer
	var lat []time.Duration
	keys := make([]string, len(specs))
	for i, g := range specs {
		info, el, err := e.postStructure(g, &buf)
		if err != nil {
			stop()
			return err
		}
		lat = append(lat, el)
		keys[i] = info.Key
		checkServed(t, ref.arts[i], info)
	}
	d, err := buildDeck(rng, ref.arts, keys, deckSpec{requests: 48, batch: 64, byKey: true, weighted: true, only: -1})
	if err != nil {
		stop()
		return err
	}
	for i := range d.reqs {
		el, _ := e.instantiate(&d.reqs[i], &buf, t)
		lat = append(lat, el)
	}
	v["jobs.queued_max"] = float64(stop())
	after, err := e.scrape()
	if err != nil {
		return err
	}
	stageLayers(after.Sub(before), lat, v)
	probeServe(e.srv, d, specs, v, t)
	return nil
}
