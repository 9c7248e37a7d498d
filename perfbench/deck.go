package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"mps"
	"mps/internal/modgen"
	"mps/internal/serve"
)

// wireRequest mirrors the /v1/instantiate request body.
type wireRequest struct {
	Key     string              `json:"key,omitempty"`
	Spec    *serve.GenerateSpec `json:"spec,omitempty"`
	Weights *serve.WeightsSpec  `json:"weights,omitempty"`
	Queries []wireQuery         `json:"queries"`
}

type wireQuery struct {
	Ws      []int              `json:"ws"`
	Hs      []int              `json:"hs"`
	Weights *serve.WeightsSpec `json:"weights,omitempty"`
}

// wireResponse mirrors the /v1/instantiate response body.
type wireResponse struct {
	Key     string       `json:"key"`
	Served  int          `json:"served"`
	Results []wireResult `json:"results"`
}

type wireResult struct {
	X           []int  `json:"x,omitempty"`
	Y           []int  `json:"y,omitempty"`
	PlacementID int    `json:"placement_id"`
	Member      int    `json:"member"`
	FromBackup  bool   `json:"from_backup"`
	Error       string `json:"error,omitempty"`
}

// request is one prepared instantiate request: its wire body, the same
// queries in facade form, and the oracle's answer for each.
type request struct {
	art     int // index of the addressed artifact
	key     string
	body    []byte
	queries []mps.DimQuery // effective per-query weights resolved
	want    []answer
	// bad names the first oracle answer whose layout is illegal; a
	// request carrying one fails every time it is served.
	bad string
}

// deck is a workload's fixed, seeded set of requests. Quality metrics are
// computed over the deck, so they depend on the seed alone, not on how
// many requests a run gets through.
type deck struct {
	reqs        []request
	stored      int
	total       int
	costSum     float64
	portfolioQs int
	routed      int
}

func (d *deck) storedShare() float64 { return float64(d.stored) / float64(d.total) }
func (d *deck) answerCost() float64  { return d.costSum / float64(d.total) }

// querySource draws seeded queries for one artifact: covered ones from a
// stored placement's validity box, the rest from modgen.DefaultSizer over
// a uniformly random sizing vector (the paper's sizing loop proposals).
type querySource struct {
	a     *artifact
	sizer *modgen.Sizer
}

func newQuerySource(a *artifact) querySource {
	return querySource{a: a, sizer: modgen.DefaultSizer(a.circuit())}
}

func (qs querySource) covered(rng *rand.Rand) (ws, hs []int) {
	m := rng.Intn(len(qs.a.ids))
	members := qs.a.members()
	ids := qs.a.ids[m]
	p := members[m].Get(ids[rng.Intn(len(ids))])
	n := len(p.WLo)
	ws, hs = make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		ws[i] = p.WLo[i] + rng.Intn(p.WHi[i]-p.WLo[i]+1)
		hs[i] = p.HLo[i] + rng.Intn(p.HHi[i]-p.HLo[i]+1)
	}
	return ws, hs
}

func (qs querySource) sized(rng *rand.Rand) (ws, hs []int) {
	ranges := qs.sizer.VarRanges()
	x := make([]float64, len(ranges))
	for i, r := range ranges {
		x[i] = r.Lerp(rng.Float64())
	}
	ws, hs, err := qs.sizer.Dims(x)
	if err != nil {
		panic(err) // x is drawn inside VarRanges by construction
	}
	return ws, hs
}

// draw returns query i of a half-covered mix: even i covered, odd i sized.
func (qs querySource) draw(rng *rand.Rand, i int) (ws, hs []int) {
	if i%2 == 0 {
		return qs.covered(rng)
	}
	return qs.sized(rng)
}

// deckSpec describes how a workload addresses its requests.
type deckSpec struct {
	requests int
	batch    int  // queries per request
	byKey    bool // address by key (else by spec)
	weighted bool // request-level and per-query routing weights on portfolios
	only     int  // address only this artifact (-1: round-robin over all)
}

// routingWeights are the vectors weighted requests draw from; the zero
// vector means "no weights" (the default area rule).
var routingWeights = append([]mps.Weights{{}}, mps.WeightLadder(4)...)

// buildDeck draws the workload's requests from rng and answers each query
// with the oracle. keys holds each artifact's served key (nil for a deck
// that is only queried through the library).
func buildDeck(rng *rand.Rand, arts []*artifact, keys []string, ds deckSpec) (*deck, error) {
	sources := make([]querySource, len(arts))
	for i, a := range arts {
		sources[i] = newQuerySource(a)
	}
	d := &deck{}
	for r := 0; r < ds.requests; r++ {
		ai := r % len(arts)
		if ds.only >= 0 {
			ai = ds.only
		}
		a := arts[ai]
		req := request{art: ai}
		if keys != nil {
			req.key = keys[ai]
		}
		wire := wireRequest{}
		var reqW mps.Weights
		weighted := ds.weighted && a.p != nil
		if weighted {
			reqW = routingWeights[rng.Intn(len(routingWeights))]
			wire.Weights = toWeightsSpec(reqW)
		}
		for i := 0; i < ds.batch; i++ {
			// Alternate covered/sized per request as well as per query, so
			// 1-query decks are half covered too.
			ws, hs := sources[ai].draw(rng, i+r)
			q := mps.DimQuery{Ws: ws, Hs: hs, Weights: reqW}
			wq := wireQuery{Ws: ws, Hs: hs}
			if weighted && i%4 == 1 {
				if w := routingWeights[1+rng.Intn(len(routingWeights)-1)]; !w.IsZero() {
					q.Weights = w
					wq.Weights = toWeightsSpec(w)
				}
			}
			want, err := a.oracle(q)
			if err != nil {
				return nil, fmt.Errorf("oracle on %s: %w", a.spec.Circuit, err)
			}
			fp := a.floorplan(want.Member)
			if msg := layoutCheck(fp, want, q); msg != "" && req.bad == "" {
				req.bad = fmt.Sprintf("%s answer illegal: %s", a.spec.Circuit, msg)
			}
			d.total++
			if !want.FromBackup {
				d.stored++
			}
			if a.p != nil {
				d.portfolioQs++
				if want.Member >= 0 {
					d.routed++
				}
			}
			d.costSum += answerCost(a.circuit(), fp, want, q)
			req.queries = append(req.queries, q)
			req.want = append(req.want, want)
			wire.Queries = append(wire.Queries, wq)
		}
		if keys != nil {
			if ds.byKey {
				wire.Key = keys[ai]
			} else {
				spec := a.spec
				wire.Spec = &spec
			}
			body, err := json.Marshal(wire)
			if err != nil {
				return nil, err
			}
			req.body = body
		}
		d.reqs = append(d.reqs, req)
	}
	return d, nil
}

// verifyResponse checks a served instantiate response against the
// oracle's answers. "" means every answer matched.
func verifyResponse(r *request, data []byte) string {
	if r.bad != "" {
		return r.bad
	}
	var resp wireResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Sprintf("undecodable response: %v", err)
	}
	if resp.Key != r.key {
		return fmt.Sprintf("response key %q, want %q", resp.Key, r.key)
	}
	if len(resp.Results) != len(r.want) || resp.Served != len(r.want) {
		return fmt.Sprintf("%d results (%d served) for %d queries", len(resp.Results), resp.Served, len(r.want))
	}
	for i, g := range resp.Results {
		got := answer{X: g.X, Y: g.Y, PlacementID: g.PlacementID, Member: g.Member, FromBackup: g.FromBackup}
		if g.Error != "" || !got.equal(r.want[i]) {
			return fmt.Sprintf("query %d: served %+v, oracle %+v", i, g, r.want[i])
		}
	}
	return ""
}
