package serve

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mps"
	"mps/internal/circuits"
)

// fuzzSpec builds a spec from fuzz inputs. Every 3 bytes of mw are one
// member weight vector with components in quarter steps, a 255 byte
// meaning -1 so invalid vectors appear too. The portfolio size is kept
// small so member derivations stay cheap.
func fuzzSpec(circuit string, seed int64, effort string, it, bdio, chains, maxp int,
	backup, backend string, k int, w [3]float64, hasW bool, mw []byte) GenerateSpec {
	g := GenerateSpec{
		Circuit: circuit, Seed: seed, Effort: effort,
		Iterations: it, BDIOSteps: bdio, Chains: chains, MaxPlacements: maxp,
		Backup: backup, Backend: backend, Portfolio: k % 17,
	}
	if hasW {
		g.Weights = &WeightsSpec{Wire: w[0], Area: w[1], Aspect: w[2]}
	}
	comp := func(b byte) float64 {
		if b == 255 {
			return -1
		}
		return float64(b%16) / 4
	}
	for i := 0; i+3 <= len(mw) && i < 3*17; i += 3 {
		g.MemberWeights = append(g.MemberWeights,
			WeightsSpec{Wire: comp(mw[i]), Area: comp(mw[i+1]), Aspect: comp(mw[i+2])})
	}
	return g
}

// clone copies g deeply enough that normalizing the copy cannot touch g.
func (g GenerateSpec) clone() GenerateSpec {
	if g.Weights != nil {
		w := *g.Weights
		g.Weights = &w
	}
	g.MemberWeights = slices.Clone(g.MemberWeights)
	return g
}

// respell rewrites raw into an equivalent spelling, one fold per set bit
// of bits: each is a rule normalize documents as meaning-preserving, so
// the respelled spec must be accepted or rejected exactly as raw is, and
// when accepted must get raw's key.
func respell(raw GenerateSpec, bits uint8) GenerateSpec {
	g := raw.clone()
	swap := func(v *string, a, b string) {
		switch *v {
		case a:
			*v = b
		case b:
			*v = a
		}
	}
	swapInt := func(v *int, a, b int) {
		switch *v {
		case a:
			*v = b
		case b:
			*v = a
		}
	}
	if bits&1 != 0 {
		swap(&g.Effort, "", "balanced")
	}
	if bits&2 != 0 {
		swapInt(&g.Chains, 0, 1)
	}
	if bits&4 != 0 {
		swapInt(&g.Portfolio, 0, 1)
	}
	if bits&8 != 0 {
		// Name the budgets the effort preset would pick.
		g.Iterations, g.BDIOSteps = g.options().Budgets()
	}
	if bits&16 != 0 {
		switch {
		case g.Weights == nil:
			b := mps.BalancedWeights
			g.Weights = &WeightsSpec{Wire: b.Wire, Area: b.Area, Aspect: b.Aspect}
		case *g.Weights == WeightsSpec{}:
			g.Weights = nil
		}
	}
	if bits&32 != 0 {
		swap(&g.Backend, "", mps.DefaultBackend)
	}
	if bits&64 != 0 {
		swap(&g.Backup, "", "tree")
	}
	if bits&128 != 0 && g.Weights == nil {
		// With no spec-level vector an omitted member entry means the
		// default objective, so naming it explicitly changes nothing.
		b := mps.BalancedWeights
		for i := range g.MemberWeights {
			if g.MemberWeights[i] == (WeightsSpec{}) {
				g.MemberWeights[i] = WeightsSpec{Wire: b.Wire, Area: b.Area, Aspect: b.Aspect}
			}
		}
	}
	return g
}

// mutate changes one field of raw that the key must see, chosen by which.
func mutate(raw GenerateSpec, which uint8) GenerateSpec {
	g := raw.clone()
	switch which % 6 {
	case 0:
		g.Seed ^= 1
	case 1:
		g.MaxPlacements++
	case 2:
		if g.Backup == "seqpair" {
			g.Backup = "tree"
		} else {
			g.Backup = "seqpair"
		}
	case 3:
		g.Iterations++
	case 4:
		if g.Weights == nil {
			g.Weights = &WeightsSpec{Wire: 3}
		} else {
			g.Weights.Area += 0.5
		}
	case 5:
		if len(g.MemberWeights) > 0 {
			g.MemberWeights[0].Aspect += 0.25
		} else {
			g.Chains += 2
		}
	}
	return g
}

// meaning is what a normalized spec asks generation to build: the circuit,
// the generation options with effort dropped (normalize made the budgets
// explicit, and effort only picks budgets), the backend, the spec-level
// objective, the member count, and every member's key.
type meaning struct {
	Circuit string
	Options mps.Options
	Backend string
	Weights mps.Weights
	K       int
	Members []string
}

func meaningOf(g GenerateSpec) meaning {
	o := g.options()
	o.Effort = mps.EffortBalanced
	m := meaning{Circuit: g.Circuit, Options: o, Backend: g.Backend, Weights: g.Weights.weights().Canonical(), K: g.Portfolio}
	for i := 0; i < g.Portfolio; i++ {
		m.Members = append(m.Members, g.memberSpec(i).key())
	}
	return m
}

// FuzzGenerateSpec is the spec-identity oracle. For any spec:
//
//   - normalize is idempotent, and the key survives a JSON round trip of
//     the normalized spec;
//   - an accepted spec names a circuit circuits.ByName builds, and an
//     unknown circuit is rejected with ByName's exact error text;
//   - resolve leaves the caller's spec untouched;
//   - a respelling (see respell) is accepted exactly when the spec is,
//     and then has the same key;
//   - equal keys mean equal meaning: the same options and member keys,
//     checked on the respelling and on a one-field mutation.
func FuzzGenerateSpec(f *testing.F) {
	f.Add("circ01", int64(1), "quick", 20, 40, 0, 0, "", "", 0, 0.0, 0.0, 0.0, false, []byte(nil), uint8(0), uint8(0))
	f.Add("TwoStageOpamp", int64(7), "", 0, 0, 1, 5, "seqpair", "ga", 1, 1.0, 0.05, 0.0, true, []byte(nil), uint8(255), uint8(4))
	f.Add("Mixer", int64(-3), "thorough", 0, 0, 2, 0, "tree", "anneal", 3, 0.0, 0.0, 0.0, false, []byte{4, 0, 0, 0, 0, 0, 1, 1, 1}, uint8(170), uint8(5))
	f.Add("circ02", int64(9), "balanced", 0, 0, 0, 0, "", "", 2, 2.0, 0.0, 1.0, true, []byte{0, 0, 0, 8, 2, 0}, uint8(85), uint8(5))
	f.Add("CIRC01", int64(1), "", 0, 0, 0, 0, "", "", 0, 0.0, 0.0, 0.0, false, []byte(nil), uint8(0), uint8(0))
	f.Add("circ01", int64(1), "heroic", -1, 0, 0, 0, "pile", "cmaes", -2, -1.0, 0.0, 0.0, true, []byte{255, 0, 0}, uint8(1), uint8(2))

	s := New(Config{})
	f.Cleanup(s.Close)

	f.Fuzz(func(t *testing.T, circuit string, seed int64, effort string, it, bdio, chains, maxp int,
		backup, backend string, k int, wWire, wArea, wAspect float64, hasW bool, mw []byte, bits, which uint8) {
		raw := fuzzSpec(circuit, seed, effort, it, bdio, chains, maxp, backup, backend, k,
			[3]float64{wWire, wArea, wAspect}, hasW, mw)

		// Printed, not DeepEqual: NaN weights never equal themselves.
		before := fmt.Sprintf("%+v %+v", raw, raw.Weights.weights())
		_, _ = s.resolve(raw)
		if after := fmt.Sprintf("%+v %+v", raw, raw.Weights.weights()); after != before {
			t.Fatalf("resolve rewrote its argument: %s, was %s", after, before)
		}

		g := raw.clone()
		err := g.normalize()
		if circuit != "" && circuits.Check(circuit) != nil {
			_, want := circuits.ByName(circuit)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("unknown circuit %q: normalize error %v, ByName says %v", circuit, err, want)
			}
		}

		r := respell(raw, bits)
		rerr := r.normalize()
		if (err == nil) != (rerr == nil) {
			t.Fatalf("respelling %08b changed validity: %v vs %v\nraw %+v\nrespelled %+v", bits, err, rerr, raw, respell(raw, bits))
		}
		if err != nil {
			return
		}

		if _, err := circuits.ByName(g.Circuit); err != nil {
			t.Fatalf("accepted spec names circuit %q that ByName rejects: %v", g.Circuit, err)
		}

		again := g.clone()
		if err := again.normalize(); err != nil {
			t.Fatalf("normalize not idempotent: second pass failed: %v", err)
		}
		if !reflect.DeepEqual(again, g) {
			t.Fatalf("normalize not idempotent:\nonce  %+v\ntwice %+v", g, again)
		}

		data, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("marshal normalized spec: %v", err)
		}
		var back GenerateSpec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if err := back.normalize(); err != nil {
			t.Fatalf("round-tripped spec %s rejected: %v", data, err)
		}
		if back.key() != g.key() {
			t.Fatalf("key changed across JSON round trip: %q -> %q (%s)", g.key(), back.key(), data)
		}

		if r.key() != g.key() {
			t.Fatalf("respelling %08b changed the key: %q -> %q", bits, g.key(), r.key())
		}
		m := meaningOf(g)
		if rm := meaningOf(r); !reflect.DeepEqual(rm, m) {
			t.Fatalf("respelling %08b kept key %q but changed meaning:\n%+v\n%+v", bits, g.key(), m, rm)
		}

		c := mutate(g, which)
		if c.normalize() == nil && c.key() == g.key() {
			if cm := meaningOf(c); !reflect.DeepEqual(cm, m) {
				t.Fatalf("key %q names two meanings:\n%+v\n%+v", g.key(), m, cm)
			}
		}
	})
}
