package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"pretium/internal/graph"
	"pretium/internal/lp"
)

// Every check returns an error instead of printing: a failed check makes
// the run report correct=false and exit non-zero.

// relEq reports |a-b| <= tol·max(1, |a|, |b|).
func relEq(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

type quoteResp struct {
	Epoch    uint64  `json:"epoch"`
	Cap      float64 `json:"cap"`
	Segments []struct {
		Bytes float64 `json:"bytes"`
		Price float64 `json:"price"`
		Route int     `json:"route"`
		Time  int     `json:"time"`
	} `json:"segments"`
}

type admitResp struct {
	Epoch      uint64  `json:"epoch"`
	Admitted   bool    `json:"admitted"`
	Bought     float64 `json:"bought"`
	Guaranteed float64 `json:"guaranteed"`
	Payment    float64 `json:"payment"`
	Lambda     float64 `json:"lambda"`
	Allocs     []struct {
		Route int     `json:"route"`
		Time  int     `json:"time"`
		Bytes float64 `json:"bytes"`
	} `json:"allocs"`
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkQuote parses a 200 quote response and checks its menu is sane.
func checkQuote(body []byte) error {
	var q quoteResp
	if err := decodeStrict(body, &q); err != nil {
		return fmt.Errorf("quote response does not parse: %w", err)
	}
	total := 0.0
	for _, s := range q.Segments {
		if !(s.Bytes >= 0) || math.IsInf(s.Price, 0) || math.IsNaN(s.Price) {
			return fmt.Errorf("quote segment %+v is not a finite non-negative offer", s)
		}
		total += s.Bytes
	}
	if !relEq(total, q.Cap, 1e-9) {
		return fmt.Errorf("quote segments sum to %v bytes, cap is %v", total, q.Cap)
	}
	return nil
}

// checkAdmit parses a 200 admit response and checks that an accepted
// admission's allocations sum to the bytes bought.
func checkAdmit(body []byte) (admitResp, error) {
	var a admitResp
	if err := decodeStrict(body, &a); err != nil {
		return a, fmt.Errorf("admit response does not parse: %w", err)
	}
	if !a.Admitted {
		if len(a.Allocs) > 0 {
			return a, fmt.Errorf("declined admit carries %d allocs", len(a.Allocs))
		}
		return a, nil
	}
	total := 0.0
	for _, al := range a.Allocs {
		if !(al.Bytes > 0) {
			return a, fmt.Errorf("admit alloc of %v bytes", al.Bytes)
		}
		total += al.Bytes
	}
	if !(a.Bought > 0) || !relEq(total, a.Bought, 1e-9) {
		return a, fmt.Errorf("admit allocs sum to %v bytes, bought %v", total, a.Bought)
	}
	return a, nil
}

// addAllocs adds an accepted admission's allocations to want[e][t] over
// the edges of each allocation's route.
func addAllocs(want [][]float64, routes []graph.Path, a admitResp) error {
	for _, al := range a.Allocs {
		if al.Route < 0 || al.Route >= len(routes) {
			return fmt.Errorf("admit alloc names route %d of %d", al.Route, len(routes))
		}
		for _, e := range routes[al.Route] {
			if al.Time < 0 || al.Time >= len(want[e]) {
				return fmt.Errorf("admit alloc at step %d outside the horizon", al.Time)
			}
			want[e][al.Time] += al.Bytes
		}
	}
	return nil
}

// checkReserved compares the service's drained room picture with the
// admitted allocations: every cell within [0, capacity] and equal to the
// admitted bytes routed over it (relative 1e-9: the service and the
// benchmark sum the same terms in different orders).
func checkReserved(reserved, want [][]float64, capacity func(e, t int) float64) error {
	if len(reserved) != len(want) {
		return fmt.Errorf("reserved has %d edges, want %d", len(reserved), len(want))
	}
	for e := range reserved {
		for t, r := range reserved[e] {
			if r < -1e-9 || r > capacity(e, t)*(1+1e-9)+1e-9 {
				return fmt.Errorf("reserved[%d][%d] = %v outside [0, %v]", e, t, r, capacity(e, t))
			}
			if !relEq(r, want[e][t], 1e-9) {
				return fmt.Errorf("reserved[%d][%d] = %v, admitted allocs sum to %v", e, t, r, want[e][t])
			}
		}
	}
	return nil
}

// controlRef is the sim.Evaluate outcome recorded for one control-cycle
// instance.
type controlRef struct {
	Welfare, Profit float64
	Admitted        int
}

// controlRefs are the recorded references, keyed by instance seed
// (x86-64, this commit). The controller is deterministic — its
// golden-trace suite pins the event stream byte for byte — so the only
// slack needed is floating-point summation order: welfare and profit
// must match to a relative 1e-9 and the admitted count exactly.
var controlRefs = map[int64]controlRef{
	controlSeed: {Welfare: 13529.832702443964, Profit: 5071.753989612869, Admitted: 789},
}

func checkControl(seed int64, got controlRef) error {
	ref, ok := controlRefs[seed]
	if !ok {
		return fmt.Errorf("no recorded control-cycle reference for instance seed %d", seed)
	}
	if got.Admitted != ref.Admitted {
		return fmt.Errorf("control cycle admitted %d requests, reference %d", got.Admitted, ref.Admitted)
	}
	if !relEq(got.Welfare, ref.Welfare, 1e-9) || !relEq(got.Profit, ref.Profit, 1e-9) {
		return fmt.Errorf("control cycle welfare/profit %v/%v, reference %v/%v", got.Welfare, got.Profit, ref.Welfare, ref.Profit)
	}
	return nil
}

// samRefObjective is the τ=0 optimum of the sam-paper instance (x86-64,
// this commit), checked at relative 1e-9.
var samRefObjective = map[int64]float64{
	samSeed: 3060.6158896798506,
}

// resolveTol bounds how far a warm re-solve's objective may sit from the
// cold one: both are optimal vertices certified by the solver's own
// residual check (lp.Options.ResidualTol defaults to 1e-6), so they agree
// to that tolerance, not to the last bit.
const resolveTol = 1e-6

func checkSAMCold(seed int64, st lp.Status, obj float64) error {
	ref, ok := samRefObjective[seed]
	if !ok {
		return fmt.Errorf("no recorded SAM reference for instance seed %d", seed)
	}
	if st != lp.Optimal {
		return fmt.Errorf("τ=0 SAM solve ended %v, want optimal", st)
	}
	if !relEq(obj, ref, 1e-9) {
		return fmt.Errorf("τ=0 SAM objective %v, reference %v", obj, ref)
	}
	return nil
}

func checkSAMResolve(st lp.Status, obj, cold float64) error {
	if st != lp.Optimal {
		return fmt.Errorf("re-solve of the unchanged τ=0 model ended %v", st)
	}
	if !relEq(obj, cold, resolveTol) {
		return fmt.Errorf("re-solve objective %v, cold %v", obj, cold)
	}
	return nil
}

// checkSAMStep checks an optimal successor step: a later StartStep only
// removes slots, so its optimum cannot exceed the τ=0 one.
func checkSAMStep(st lp.Status, obj, cold float64) error {
	if st != lp.Optimal {
		return nil // a failed step is counted in failed, not a wrong answer
	}
	if obj > cold+resolveTol*math.Max(1, math.Abs(cold)) {
		return fmt.Errorf("successor step objective %v exceeds the τ=0 optimum %v", obj, cold)
	}
	return nil
}
