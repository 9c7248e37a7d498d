package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"mps"
	"mps/internal/geom"
	"mps/internal/serve"
)

// runShort runs one workload briefly and fails the test on any error,
// failed operation or missing metric.
func runShort(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	res, err := runWorkload(name, seed, 300*time.Millisecond, trace, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", name, d.name, m, d.unit)
		}
		if !trace && m.Value == 0 {
			t.Errorf("%s: end-to-end metric %s is 0", name, d.name)
		}
	}
	return res
}

// TestSmoke runs every workload briefly: every end-to-end metric is
// emitted with its unit and no operation fails (error_rate 0). Outside
// -short the traced run of every workload must emit every per-layer
// metric too.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res := runShort(t, wl.name, 1, false)
			if wl.name == "sizing_loop" || wl.name == "batch_sweep" {
				if s := res.Metrics["stored_share"].Value; s <= 0 {
					t.Errorf("stored_share %g, want > 0", s)
				}
			}
			if !testing.Short() {
				runShort(t, wl.name, 1, true)
			}
		})
	}
}

// TestQualityMetricsSeeded pins the quality metrics to the seed: they
// repeat exactly for a fixed seed, and the query-derived ones change
// with it. coverage depends only on the fixed generation specs, so it
// stays put across seeds.
func TestQualityMetricsSeeded(t *testing.T) {
	a := runShort(t, "churn", 7, false).Metrics
	b := runShort(t, "churn", 7, false).Metrics
	c := runShort(t, "churn", 8, false).Metrics
	for _, name := range []string{"stored_share", "answer_cost", "coverage"} {
		if a[name] != b[name] {
			t.Errorf("%s differs between runs of one seed: %v vs %v", name, a[name], b[name])
		}
	}
	if a["answer_cost"] == c["answer_cost"] {
		t.Errorf("answer_cost %v did not change with the seed", a["answer_cost"])
	}
	if a["coverage"] != c["coverage"] {
		t.Errorf("coverage changed with the seed: %v vs %v", a["coverage"], c["coverage"])
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root declares exactly the workloads and metrics this program emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		if w.name != "churn" { // run by hand only; see workloads
			want = append(want, w.name)
		}
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defs) {
			t.Errorf("BENCHMARK.json declares %d metrics, program emits %d", len(c.declared), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.declared[i].Name != d.name || c.declared[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %s (%s)", i, c.declared[i], d.name, d.unit)
			}
		}
	}
}

// TestLayoutCheck pins the legality rules: overlap is always illegal, the
// floorplan binds stored placements only, and backup anchors must not be
// negative.
func TestLayoutCheck(t *testing.T) {
	fp := geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}
	q := mps.DimQuery{Ws: []int{4, 4}, Hs: []int{4, 4}}
	for _, c := range []struct {
		name  string
		ans   answer
		legal bool
	}{
		{"disjoint", answer{X: []int{0, 5}, Y: []int{0, 0}}, true},
		{"overlap", answer{X: []int{0, 3}, Y: []int{0, 0}}, false},
		{"outside floorplan", answer{X: []int{0, 8}, Y: []int{0, 0}}, false},
		{"backup past floorplan", answer{X: []int{0, 8}, Y: []int{0, 0}, FromBackup: true}, true},
		{"backup negative", answer{X: []int{-1, 5}, Y: []int{0, 0}, FromBackup: true}, false},
		{"backup overlap", answer{X: []int{0, 3}, Y: []int{0, 0}, FromBackup: true}, false},
	} {
		if got := layoutCheck(fp, c.ans, q) == ""; got != c.legal {
			t.Errorf("%s: legal=%v, want %v", c.name, got, c.legal)
		}
	}
}

// TestOracleCatchesMismatch feeds verifyResponse a served answer that
// differs from the oracle in each checked field in turn.
func TestOracleCatchesMismatch(t *testing.T) {
	a, err := generate(serve.GenerateSpec{Circuit: "circ01", Seed: 1, Effort: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := buildDeck(rand.New(rand.NewSource(1)), []*artifact{a}, []string{"k"},
		deckSpec{requests: 2, batch: 4, byKey: true, only: -1})
	if err != nil {
		t.Fatal(err)
	}
	r := &d.reqs[0]
	served := func(mutate func(*wireResult)) []byte {
		resp := wireResponse{Key: r.key, Served: len(r.want)}
		for _, w := range r.want {
			res := wireResult{X: append([]int(nil), w.X...), Y: append([]int(nil), w.Y...),
				PlacementID: w.PlacementID, Member: w.Member, FromBackup: w.FromBackup}
			resp.Results = append(resp.Results, res)
		}
		if mutate != nil {
			mutate(&resp.Results[0])
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if msg := verifyResponse(r, served(nil)); msg != "" {
		t.Fatalf("faithful answer rejected: %s", msg)
	}
	for name, mutate := range map[string]func(*wireResult){
		"x":            func(w *wireResult) { w.X[0]++ },
		"y":            func(w *wireResult) { w.Y[len(w.Y)-1]++ },
		"placement_id": func(w *wireResult) { w.PlacementID++ },
		"member":       func(w *wireResult) { w.Member++ },
		"from_backup":  func(w *wireResult) { w.FromBackup = !w.FromBackup },
	} {
		if msg := verifyResponse(r, served(mutate)); msg == "" {
			t.Errorf("mismatched %s accepted", name)
		}
	}
}
