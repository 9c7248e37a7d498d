package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"mps"
	"mps/internal/circuits"
)

// TestSpecKeyBackendCompat pins the spec-key compatibility rule: specs
// without a backend (everything written before backends existed) and
// specs naming "anneal" explicitly share the historical key byte for
// byte, while non-default backends get their own |backend= tag — placed
// before the |k= suffix so portfolio keys stay parseable the same way.
func TestSpecKeyBackendCompat(t *testing.T) {
	base := testSpec(1)
	if err := base.normalize(); err != nil {
		t.Fatal(err)
	}
	legacyKey := "circ01|seed=1|it=20|bdio=40|chains=1|maxp=0|backup=tree"
	if got := base.key(); got != legacyKey {
		t.Errorf("backendless spec key = %q, want the pre-backend key %q", got, legacyKey)
	}

	explicit := testSpec(1)
	explicit.Backend = "anneal"
	if err := explicit.normalize(); err != nil {
		t.Fatal(err)
	}
	if got := explicit.key(); got != legacyKey {
		t.Errorf("explicit anneal key = %q, want %q", got, legacyKey)
	}

	ga := testSpec(1)
	ga.Backend = "ga"
	if err := ga.normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := ga.key(), legacyKey+"|backend=ga"; got != want {
		t.Errorf("ga key = %q, want %q", got, want)
	}

	gaPf := testSpec(1)
	gaPf.Backend = "ga"
	gaPf.Portfolio = 3
	if err := gaPf.normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := gaPf.key(), legacyKey+"|backend=ga|k=3"; got != want {
		t.Errorf("ga portfolio key = %q, want %q", got, want)
	}

	// Member specs inherit the backend, so a GA portfolio's members
	// cache/persist/dedup as GA artifacts.
	member := gaPf.memberSpec(1)
	if member.Backend != "ga" {
		t.Errorf("member backend = %q, want ga", member.Backend)
	}
	if !strings.Contains(member.key(), "|backend=ga") {
		t.Errorf("member key %q lost the backend tag", member.key())
	}
	if strings.Contains(member.key(), "|k=") {
		t.Errorf("member key %q kept the portfolio suffix", member.key())
	}
}

// TestBadSpecsRejected is the one-place validation table: every bad
// enumerated field, negative or over-cap budget, and bad weighting must
// come back as a 400 that names the offending value, never reach
// generation — and read the same from every entry point that takes a
// spec (POST /v1/structures, POST /v1/jobs, and a spec-addressed POST
// /v1/instantiate), since all three resolve a spec the same way.
func TestBadSpecsRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	circ := func(mod func(*GenerateSpec)) GenerateSpec {
		g := GenerateSpec{Circuit: "circ01"}
		mod(&g)
		return g
	}
	cases := []struct {
		name    string
		spec    GenerateSpec
		mention string
	}{
		{"missing circuit", GenerateSpec{}, "missing circuit"},
		{"unknown circuit", GenerateSpec{Circuit: "nope"}, "nope"},
		{"near-miss circuit", GenerateSpec{Circuit: "CIRC01"}, "CIRC01"},
		{"unknown effort", circ(func(g *GenerateSpec) { g.Effort = "heroic" }), "heroic"},
		{"unknown backup", circ(func(g *GenerateSpec) { g.Backup = "pile" }), "pile"},
		{"unknown backend", circ(func(g *GenerateSpec) { g.Backend = "cmaes" }), "cmaes"},
		{"negative iterations", circ(func(g *GenerateSpec) { g.Iterations = -1 }), "negative budget"},
		{"negative bdio", circ(func(g *GenerateSpec) { g.BDIOSteps = -5 }), "negative budget"},
		{"negative chains", circ(func(g *GenerateSpec) { g.Chains = -2 }), "negative budget"},
		{"negative max placements", circ(func(g *GenerateSpec) { g.MaxPlacements = -1 }), "negative budget"},
		{"negative portfolio", circ(func(g *GenerateSpec) { g.Portfolio = -3 }), "negative portfolio"},
		{"negative weight", circ(func(g *GenerateSpec) { g.Weights = &WeightsSpec{Wire: -1} }), "weights"},
		{"negative member weight", circ(func(g *GenerateSpec) {
			g.Portfolio = 2
			g.MemberWeights = []WeightsSpec{{}, {Area: -2}}
		}), "member_weights[1]"},
		{"member weights without portfolio", circ(func(g *GenerateSpec) {
			g.MemberWeights = []WeightsSpec{{Wire: 1}}
		}), "single-structure"},
		{"member weights count", circ(func(g *GenerateSpec) {
			g.Portfolio = 3
			g.MemberWeights = []WeightsSpec{{Wire: 1}}
		}), "1 member_weights for a 3-member portfolio"},
		{"over-cap iterations", circ(func(g *GenerateSpec) { g.Iterations = 1 << 30 }), "exceeds daemon cap"},
		{"over-cap bdio", circ(func(g *GenerateSpec) { g.BDIOSteps = 1 << 30 }), "exceeds daemon cap"},
		{"over-cap chains", circ(func(g *GenerateSpec) { g.Chains = maxChains + 1 }), "exceeds daemon cap"},
		{"over-cap portfolio", circ(func(g *GenerateSpec) { g.Portfolio = maxPortfolio + 1 }), "exceeds daemon cap"},
	}
	query := testQuery(t, 0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bodies := []struct {
				path string
				body any
			}{
				{"/v1/structures", tc.spec},
				{"/v1/jobs", map[string]any{"spec": tc.spec}},
				{"/v1/instantiate", map[string]any{"spec": tc.spec, "queries": []any{query}}},
			}
			var first string
			for i, b := range bodies {
				status, body := postJSON(t, ts.URL+b.path, b.body, nil)
				if status != http.StatusBadRequest {
					t.Fatalf("%s: status = %d, want 400 (body: %s)", b.path, status, body)
				}
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
					t.Fatalf("%s: 400 body %q is not an error object", b.path, body)
				}
				if !strings.Contains(e.Error, tc.mention) {
					t.Errorf("%s: error %q does not mention %q", b.path, e.Error, tc.mention)
				}
				if i == 0 {
					first = e.Error
				} else if e.Error != first {
					t.Errorf("%s: error %q, %s said %q", b.path, e.Error, bodies[0].path, first)
				}
			}
		})
	}
	if n := s.genRuns.Load(); n != 0 {
		t.Errorf("bad specs started %d generation runs", n)
	}
	if jobs := s.Jobs().List(); len(jobs) != 0 {
		t.Errorf("bad specs left %d jobs", len(jobs))
	}

	// An unknown circuit is rejected with the circuit package's own error
	// text, the one generation would have produced.
	_, wantErr := circuits.ByName("nope")
	_, body := postJSON(t, ts.URL+"/v1/structures", GenerateSpec{Circuit: "nope"}, nil)
	var got struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil || got.Error != wantErr.Error() {
		t.Errorf("unknown-circuit 400 %q, want error %q", body, wantErr)
	}

	// The unknown-backend 400 must list the registered names so clients
	// can self-correct without a second round trip.
	spec := GenerateSpec{Circuit: "circ01", Backend: "cmaes"}
	_, body = postJSON(t, ts.URL+"/v1/structures", spec, nil)
	for _, name := range mps.Backends() {
		if !strings.Contains(body, name) {
			t.Errorf("unknown-backend 400 %q does not list registered backend %q", body, name)
		}
	}
}

// TestBackendsEndpoint checks GET /v1/backends lists every registered
// backend and marks the default.
func TestBackendsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var resp struct {
		Backends []struct {
			Name    string `json:"name"`
			Default bool   `json:"default"`
		} `json:"backends"`
	}
	if status := getJSON(t, ts.URL+"/v1/backends", &resp); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	got := map[string]bool{}
	for _, b := range resp.Backends {
		got[b.Name] = b.Default
	}
	for _, name := range mps.Backends() {
		isDefault, ok := got[name]
		if !ok {
			t.Errorf("backend %q missing from listing %v", name, got)
			continue
		}
		if want := name == mps.DefaultBackend; isDefault != want {
			t.Errorf("backend %q default = %v, want %v", name, isDefault, want)
		}
	}
	if len(resp.Backends) != len(mps.Backends()) {
		t.Errorf("listed %d backends, registry has %d", len(resp.Backends), len(mps.Backends()))
	}
}

// TestGenerateGABackendServed drives a GA generation through the full
// serving path — spec in, structure generated on the scheduler, cached
// under a backend-tagged key — and checks anneal and GA artifacts for
// the same (circuit, seed, budgets) coexist as separate entries.
func TestGenerateGABackendServed(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	gaSpec := testSpec(1)
	gaSpec.Backend = "ga"
	var gaInfo StructureInfo
	if status, body := postJSON(t, ts.URL+"/v1/structures", gaSpec, &gaInfo); status != http.StatusOK {
		t.Fatalf("ga generate status = %d (body: %s)", status, body)
	}
	if gaInfo.Spec.Backend != "ga" {
		t.Errorf("served spec backend = %q, want ga", gaInfo.Spec.Backend)
	}
	if gaInfo.Placements == 0 {
		t.Error("GA generation served zero placements")
	}
	if !strings.Contains(gaInfo.Key, "|backend=ga") {
		t.Errorf("GA entry key %q lacks the backend tag", gaInfo.Key)
	}

	annealInfo, err := s.Generate(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if annealInfo.Key == gaInfo.Key {
		t.Error("anneal and ga specs share a cache key")
	}
	if annealInfo.Spec.Backend != "anneal" {
		t.Errorf("backendless spec normalized to %q, want anneal", annealInfo.Spec.Backend)
	}
}
