package pricing

import "fmt"

// Publication lifecycle for shared states.
//
// The admission service (internal/serve) hands each pricing epoch two
// copies of a State: a *published* copy that serialized commits mutate
// via Reserve, and a *sealed* copy that concurrent quoters read with no
// lock at all. The comment on State warns that direct matrix writers
// must call Invalidate; under concurrency even that contract is too
// weak — a matrix write plus a cache rebuild cannot be made atomic
// against a lock-free reader. So states carry an explicit stage and
// every mutator poisons itself past the stage where it stops being
// safe:
//
//	mutable   — fresh from NewState/Clone; anything goes. This is the
//	            snapshot-construction window, the ONLY point where
//	            planning inputs (prices, plans, set-asides, outages)
//	            may change.
//	published — shared with the admission service. Planning mutators
//	            panic; Reserve stays legal because the service
//	            serializes room commits per edge.
//	sealed    — shared with lock-free readers. Every mutator panics.
//
// The check is always on, not debug-only: it is a single byte compare
// on paths that already touch per-edge arrays, and a poisoned write
// that only panics in debug builds is a data race in production.

type mutStage uint8

const (
	stateMutable mutStage = iota
	statePublished
	stateSealed
)

func (s mutStage) String() string {
	switch s {
	case statePublished:
		return "published"
	case stateSealed:
		return "sealed"
	default:
		return "mutable"
	}
}

// guardPlan poisons planning mutators on any shared state.
func (s *State) guardPlan(op string) {
	if s.mut != stateMutable {
		panic("pricing: " + op + " on a " + s.mut.String() +
			" state; snapshot construction (before MarkPublished) is the only mutation point")
	}
}

// guardRoom poisons room commits on a sealed state only.
func (s *State) guardRoom(op string) {
	if s.mut == stateSealed {
		panic("pricing: " + op + " on a sealed state; room commits belong on the published copy")
	}
}

// MarkPublished moves the state to the published stage: planning
// mutators panic from here on, Reserve remains legal. Irreversible —
// build a Clone to plan the next epoch.
func (s *State) MarkPublished() { s.mut = statePublished }

// Seal moves the state to the sealed stage: every mutator panics,
// making the state safe to read concurrently with no synchronization.
// Irreversible.
func (s *State) Seal() { s.mut = stateSealed }

// Published reports whether planning mutators are poisoned.
func (s *State) Published() bool { return s.mut != stateMutable }

// Sealed reports whether all mutators are poisoned.
func (s *State) Sealed() bool { return s.mut == stateSealed }

// Clone deep-copies the state into a fresh *mutable* one: matrices,
// segment caches, the outage overlay, and the adjustment config are all
// independent of the receiver; only the immutable Network is shared.
// This is how the service plans epoch N+1 from epoch N without touching
// the copy concurrent readers still hold.
func (s *State) Clone() *State {
	c := &State{
		Net:     s.Net,
		Horizon: s.Horizon,
		Adjust:  s.Adjust,
		outVer:  s.outVer,
	}
	c.BasePrice = cloneMatrix(s.BasePrice)
	c.Reserved = cloneMatrix(s.Reserved)
	c.HighPri = cloneMatrix(s.HighPri)
	c.segPrice = append([]float64(nil), s.segPrice...)
	c.segRoom = append([]float64(nil), s.segRoom...)
	c.outTotal = append([]float64(nil), s.outTotal...)
	c.outBySrc = make(map[string]map[int]float64, len(s.outBySrc))
	for src, cells := range s.outBySrc {
		cc := make(map[int]float64, len(cells))
		for i, v := range cells {
			cc[i] = v
		}
		c.outBySrc[src] = cc
	}
	return c
}

// SealedView returns a sealed snapshot of a published state for
// lock-free readers. The view owns copies of what Reserve still changes
// on s (Reserved and the segment caches) and shares the prices,
// set-asides and outage overlay with s, which no mutator may change
// once s is published; it costs half a Clone. SealedView panics unless
// s is published (MarkPublished) and not sealed.
func (s *State) SealedView() *State {
	if s.mut != statePublished {
		panic("pricing: SealedView of a " + s.mut.String() + " state; only a published state's planning inputs are frozen")
	}
	return &State{
		Net:       s.Net,
		Horizon:   s.Horizon,
		Adjust:    s.Adjust,
		BasePrice: s.BasePrice,
		Reserved:  cloneMatrix(s.Reserved),
		HighPri:   s.HighPri,
		segPrice:  append([]float64(nil), s.segPrice...),
		segRoom:   append([]float64(nil), s.segRoom...),
		outTotal:  s.outTotal,
		outBySrc:  s.outBySrc,
		outVer:    s.outVer,
		mut:       stateSealed,
	}
}

func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// CopyPricingFrom adopts src's planning inputs — prices, high-pri
// set-aside, outage overlay, and adjustment config — into s, then
// rebuilds the segment cache. When room is true the reservation plan is
// adopted too (SAM re-planned the schedule); when false s keeps its own
// Reserved matrix, so admissions committed since src was built carry
// forward (the price-only PC refresh). s must still be mutable; src may
// be in any stage (reading it is safe because the caller owns both
// sides of a publish).
func (s *State) CopyPricingFrom(src *State, room bool) error {
	if src.Net.NumEdges() != s.Net.NumEdges() {
		return fmt.Errorf("pricing: copy from state with %d edges, want %d", src.Net.NumEdges(), s.Net.NumEdges())
	}
	if src.Horizon != s.Horizon {
		return fmt.Errorf("pricing: copy from state with horizon %d, want %d", src.Horizon, s.Horizon)
	}
	s.guardPlan("CopyPricingFrom")
	for e := range src.BasePrice {
		copy(s.BasePrice[e], src.BasePrice[e])
		copy(s.HighPri[e], src.HighPri[e])
		if room {
			copy(s.Reserved[e], src.Reserved[e])
		}
	}
	copy(s.outTotal, src.outTotal)
	s.outBySrc = make(map[string]map[int]float64, len(src.outBySrc))
	for k, cells := range src.outBySrc {
		cc := make(map[int]float64, len(cells))
		for i, v := range cells {
			cc[i] = v
		}
		s.outBySrc[k] = cc
	}
	s.outVer = src.outVer
	s.Adjust = src.Adjust
	s.Invalidate()
	return nil
}
