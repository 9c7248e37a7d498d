package main

import (
	"context"
	"fmt"
	"math"
	"slices"

	"mps"
	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/geom"
	"mps/internal/serve"
)

// Generation seeds are fixed, not drawn from --seed: a structure's
// coverage and generation time vary several-fold between seeds, so
// seed-drawn specs would make every generation metric a lottery. The seed
// drives what varies per run: query decks, request order, and the fresh
// specs churn writes.
const specSeed = 1

// ladder returns the first k rungs of the default weight ladder as
// explicit member weights (a served spec never gets an implicit ladder).
func ladder(k int) []serve.WeightsSpec {
	out := make([]serve.WeightsSpec, k)
	for i, w := range mps.WeightLadder(k) {
		out[i] = serve.WeightsSpec{Wire: w.Wire, Area: w.Area, Aspect: w.Aspect}
	}
	return out
}

// hotSpecs is the serving hot set: spans the paper's size range from
// 5-block TwoStageOpamp to 24-block benchmark24, plus a weight-diverse
// K=3 portfolio so routing is on the path.
func hotSpecs() []serve.GenerateSpec {
	return []serve.GenerateSpec{
		{Circuit: "TwoStageOpamp", Seed: specSeed, Effort: "balanced"},
		{Circuit: "Mixer", Seed: specSeed, Effort: "balanced"},
		{Circuit: "benchmark24", Seed: specSeed, Effort: "balanced"},
		{Circuit: "circ06", Seed: specSeed, Effort: "balanced", Portfolio: 3, MemberWeights: ladder(3)},
	}
}

// generateSpecs is the offline generation set: one spec per backend and
// shape (anneal single, anneal K=3 on the weight ladder, ga single).
func generateSpecs() []serve.GenerateSpec {
	return []serve.GenerateSpec{
		{Circuit: "tso-cascode", Seed: specSeed, Effort: "balanced"},
		{Circuit: "Mixer", Seed: specSeed, Effort: "balanced", Portfolio: 3, MemberWeights: ladder(3)},
		{Circuit: "benchmark24", Seed: specSeed, Effort: "balanced", Backend: "ga"},
	}
}

// withEffort returns a copy of specs at another effort preset.
func withEffort(specs []serve.GenerateSpec, effort string) []serve.GenerateSpec {
	out := make([]serve.GenerateSpec, len(specs))
	for i, g := range specs {
		g.Effort = effort
		out[i] = g
	}
	return out
}

func toWeights(w *serve.WeightsSpec) mps.Weights {
	if w == nil {
		return mps.Weights{}
	}
	return mps.Weights{Wire: w.Wire, Area: w.Area, Aspect: w.Aspect}
}

func toWeightsSpec(w mps.Weights) *serve.WeightsSpec {
	if w.IsZero() {
		return nil
	}
	return &serve.WeightsSpec{Wire: w.Wire, Area: w.Area, Aspect: w.Aspect}
}

// facadeRequest maps a served spec onto the library request that
// generates the same artifact: same circuit, seed, budgets, backend and
// weights, one chain (Chains <= 1 keeps generation deterministic).
func facadeRequest(g serve.GenerateSpec) (mps.Request, error) {
	c, err := mps.Benchmark(g.Circuit)
	if err != nil {
		return mps.Request{}, err
	}
	opts := mps.Options{Seed: g.Seed, Iterations: g.Iterations, BDIOSteps: g.BDIOSteps, Chains: 1}
	switch g.Effort {
	case "", "balanced":
		opts.Effort = mps.EffortBalanced
	case "quick":
		opts.Effort = mps.EffortQuick
	case "thorough":
		opts.Effort = mps.EffortThorough
	default:
		return mps.Request{}, fmt.Errorf("unknown effort %q", g.Effort)
	}
	req := mps.Request{Circuit: c, Options: opts, Backend: g.Backend, Weights: toWeights(g.Weights)}
	if g.Portfolio > 1 {
		req.K = g.Portfolio
		req.MemberWeights = make([]mps.Weights, g.Portfolio)
		for i := range g.MemberWeights {
			req.MemberWeights[i] = toWeights(&g.MemberWeights[i])
		}
	}
	return req, nil
}

// memberRequests splits a request into one single-structure request per
// portfolio member, at the member's derived seed and resolved weights
// (the members mps.Run builds for a portfolio). A single-structure
// request comes back unchanged, alone.
func memberRequests(req mps.Request) []mps.Request {
	if req.K == 0 {
		return []mps.Request{req}
	}
	out := make([]mps.Request, req.K)
	for i := range out {
		m := req
		m.K, m.MemberWeights = 0, nil
		m.Options.Seed = mps.PortfolioMemberSeed(req.Options.Seed, i)
		if i < len(req.MemberWeights) && !req.MemberWeights[i].IsZero() {
			m.Weights = req.MemberWeights[i]
		}
		out[i] = m
	}
	return out
}

// artifact is one generated structure or portfolio together with the
// spec that names it. It doubles as the differential oracle: its answers
// come straight from the library facade.
type artifact struct {
	spec serve.GenerateSpec
	s    *mps.Structure
	p    *mps.Portfolio
	// stats holds mps.Run's per-structure generation stats.
	stats []mps.Stats
	// ids caches each member's stored placement ids for query generation.
	ids [][]int
}

func newArtifact(spec serve.GenerateSpec, res mps.RunResult) *artifact {
	a := &artifact{spec: spec, s: res.Structure, p: res.Portfolio, stats: res.Stats}
	for _, m := range a.members() {
		a.ids = append(a.ids, m.IDs())
	}
	return a
}

// generate builds the artifact for spec through mps.Run.
func generate(spec serve.GenerateSpec) (*artifact, error) {
	req, err := facadeRequest(spec)
	if err != nil {
		return nil, err
	}
	res, err := mps.Run(context.Background(), req)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", spec.Circuit, err)
	}
	return newArtifact(spec, res), nil
}

func (a *artifact) members() []*core.Structure {
	if a.p != nil {
		return a.p.Members()
	}
	return []*core.Structure{a.s.Structure}
}

func (a *artifact) circuit() *mps.Circuit { return a.members()[0].Circuit() }

func (a *artifact) placements() int {
	n := 0
	for _, m := range a.members() {
		n += m.NumPlacements()
	}
	return n
}

// meanCoverage averages core.Structure.Coverage over every structure in
// the artifacts, portfolio members counted individually.
func meanCoverage(arts []*artifact) float64 {
	var sum float64
	n := 0
	for _, a := range arts {
		for _, m := range a.members() {
			sum += m.Coverage()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// answer is one query's placement as the client sees it.
type answer struct {
	X, Y        []int
	PlacementID int
	Member      int
	FromBackup  bool
}

// equal reports whether two answers name the same placement and layout.
func (a answer) equal(b answer) bool {
	return a.PlacementID == b.PlacementID && a.Member == b.Member && a.FromBackup == b.FromBackup &&
		slices.Equal(a.X, b.X) && slices.Equal(a.Y, b.Y)
}

// oracle answers q through the facade's single-query path:
// Structure.Instantiate, or Portfolio.Instantiate / InstantiateWeighted.
func (a *artifact) oracle(q mps.DimQuery) (answer, error) {
	if a.p != nil {
		var r mps.PortfolioResult
		var err error
		if q.Weights.IsZero() {
			r, err = a.p.Instantiate(q.Ws, q.Hs)
		} else {
			r, err = a.p.InstantiateWeighted(q.Weights, q.Ws, q.Hs)
		}
		if err != nil {
			return answer{}, err
		}
		return answer{X: r.X, Y: r.Y, PlacementID: r.PlacementID, Member: r.Member, FromBackup: r.FromBackup}, nil
	}
	r, err := a.s.Instantiate(q.Ws, q.Hs)
	if err != nil {
		return answer{}, err
	}
	member := 0
	if r.FromBackup {
		member = -1
	}
	return answer{X: r.X, Y: r.Y, PlacementID: r.PlacementID, Member: member, FromBackup: r.FromBackup}, nil
}

// batch answers queries through the facade's batch engine, the path
// internal/serve drives.
func (a *artifact) batch(qs []mps.DimQuery) []mps.BatchResult {
	if a.p != nil {
		return a.p.InstantiateBatchWorkers(qs, 0)
	}
	return a.s.InstantiateBatchWorkers(qs, 0)
}

// floorplan is the floorplan the answer's layout must stay inside.
func (a *artifact) floorplan(member int) geom.Rect {
	ms := a.members()
	if member < 0 || member >= len(ms) {
		member = 0
	}
	return ms[member].Floorplan()
}

// layoutCheck reports why an answer's layout is illegal: two blocks
// overlapping, a stored placement's block outside the floorplan, or a
// backup block at a negative anchor. The §3.1.4 backup is a slicing-tree
// template that grows with the dimensions (internal/template: "legal for
// any dimensions"), so only stored placements carry the floorplan bound.
// "" means legal.
func layoutCheck(fp geom.Rect, ans answer, q mps.DimQuery) string {
	n := len(q.Ws)
	if len(ans.X) != n || len(ans.Y) != n {
		return fmt.Sprintf("layout has %d/%d anchors for %d blocks", len(ans.X), len(ans.Y), n)
	}
	bound := fp
	if ans.FromBackup {
		bound = geom.Rect{X0: 0, Y0: 0, X1: math.MaxInt, Y1: math.MaxInt}
	}
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.NewRect(ans.X[i], ans.Y[i], q.Ws[i], q.Hs[i])
		if !bound.Contains(rects[i]) {
			return fmt.Sprintf("block %d %v outside %v (backup %v)", i, rects[i], bound, ans.FromBackup)
		}
		for j := 0; j < i; j++ {
			if rects[i].Overlaps(rects[j]) {
				return fmt.Sprintf("blocks %d and %d overlap", j, i)
			}
		}
	}
	return ""
}

// answerCost scores an answer's layout with cost.DefaultWeights.
func answerCost(c *mps.Circuit, fp geom.Rect, ans answer, q mps.DimQuery) float64 {
	return cost.DefaultWeights.Cost(&cost.Layout{Circuit: c, X: ans.X, Y: ans.Y, W: q.Ws, H: q.Hs, Floorplan: fp})
}
