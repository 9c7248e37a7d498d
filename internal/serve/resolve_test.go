package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mps/internal/circuits"
)

// TestResolveNeverBuildsACircuit bounds what resolving a spec costs: a
// handful of allocations for the key and the backend list, far below the
// ~60 that building even circ01's netlist takes. A resolve that went back
// to validating the circuit name by construction would blow the bound.
func TestResolveNeverBuildsACircuit(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	spec := testSpec(1)
	built := testing.AllocsPerRun(50, func() { circuits.MustByName(spec.Circuit) })
	got := testing.AllocsPerRun(200, func() {
		if _, err := s.resolve(spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("resolve: %.0f allocs; building the circuit: %.0f", got, built)
	if got > 8 || got >= built {
		t.Errorf("resolve allocates %.0f times (building the circuit: %.0f)", got, built)
	}
}

// TestResolveLeavesCallerSpec pins that resolving never writes through
// to the caller's spec: normalize folds member weights in place, and the
// folds must land on resolve's own copy of the slice.
func TestResolveLeavesCallerSpec(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	spec := testSpec(1)
	spec.Portfolio = 2
	balanced := WeightsSpec{Wire: 1, Area: 0.05}
	spec.MemberWeights = []WeightsSpec{balanced, {Wire: 2}}
	rs, err := s.resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if spec.MemberWeights[0] != balanced {
		t.Errorf("caller's member_weights[0] rewritten to %+v", spec.MemberWeights[0])
	}
	if rs.spec.MemberWeights[0] != (WeightsSpec{}) {
		t.Errorf("resolved member_weights[0] = %+v, want the folded zero entry", rs.spec.MemberWeights[0])
	}
	if rs.key != rs.spec.key() {
		t.Errorf("resolved key %q, spec keys to %q", rs.key, rs.spec.key())
	}
}

// TestInstantiateResponseWireBytes pins the typed instantiate response to
// the bytes the map it replaced produced: same fields, same order, same
// encoding, for stored, backup, and failed answers.
func TestInstantiateResponseWireBytes(t *testing.T) {
	results := []queryResult{
		{X: []int{0, 12}, Y: []int{3, 0}, PlacementID: 7, Member: 1},
		{X: []int{1, 2}, Y: []int{4, 5}, PlacementID: -1, Member: -1, FromBackup: true},
		{PlacementID: -1, Member: -1, Error: "core: dimension <out> of range & \"bad\""},
	}
	key := "circ01|seed=1|it=20|bdio=40|chains=1|maxp=0|backup=tree"
	typed := httptest.NewRecorder()
	writeJSON(typed, http.StatusOK, instantiateResponse{Key: key, Results: results, Served: 2})
	legacy := httptest.NewRecorder()
	writeJSON(legacy, http.StatusOK, map[string]any{"key": key, "served": 2, "results": results})
	if !bytes.Equal(typed.Body.Bytes(), legacy.Body.Bytes()) {
		t.Errorf("typed response\n%s\ndiffers from the map encoding\n%s", typed.Body, legacy.Body)
	}
	if !strings.HasPrefix(typed.Body.String(), `{"key":`) {
		t.Errorf("response does not lead with key: %s", typed.Body)
	}
}

// TestRouteCounterCached pins the request-counter epilogue: the first
// request for a (route, status) pair creates the labeled child, and every
// repeat is served from the route's cache without allocating.
func TestRouteCounterCached(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	rm := s.metrics.routes["instantiate"]
	first := rm.requests(http.StatusOK)
	if again := rm.requests(http.StatusOK); again != first {
		t.Fatal("repeated (route, status) returned a different counter")
	}
	if other := rm.requests(http.StatusBadRequest); other == first {
		t.Fatal("distinct statuses share a counter")
	}
	if n := testing.AllocsPerRun(100, func() { rm.requests(http.StatusOK).Inc() }); n != 0 {
		t.Errorf("repeated (route, status) allocates %.1f times per request", n)
	}
	var out bytes.Buffer
	if err := s.metrics.reg.WriteProm(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`mps_http_requests_total{route="instantiate",code="200"} 101`,
		`mps_http_requests_total{route="instantiate",code="400"} 0`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestRouteCounterConcurrentFirstUse races first requests for the same
// and different codes, a nonstandard code included: every increment must
// land on the one counter /metrics reports for its (route, status).
func TestRouteCounterConcurrentFirstUse(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	rm := s.metrics.routes["structures"]
	codes := []int{http.StatusOK, http.StatusNotFound, http.StatusServiceUnavailable, 799}
	const goroutines, perCode = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCode; i++ {
				for _, code := range codes {
					rm.requests(code).Inc()
				}
			}
		}()
	}
	wg.Wait()
	for _, code := range codes {
		if got := rm.count.With("structures", strconv.Itoa(code)).Load(); got != goroutines*perCode {
			t.Errorf("code %d counted %d, want %d", code, got, goroutines*perCode)
		}
	}
}
