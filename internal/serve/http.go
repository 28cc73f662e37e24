package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"pretium/internal/obs"
	"pretium/internal/pricing"
	"pretium/internal/traffic"
)

// The HTTP front-end is deliberately thin: JSON in, JSON out, no state
// of its own beyond the Service. Clients name nodes; the handler
// resolves the admissible route set with the same k-shortest-paths rule
// the experiments use, so a transfer admitted over HTTP is priced
// exactly like one admitted in a replay.

// wireRequest is the transport form of a transfer request.
type wireRequest struct {
	ID     int     `json:"id"`
	Src    string  `json:"src"`
	Dst    string  `json:"dst"`
	Start  int     `json:"start"`
	End    int     `json:"end"`
	Demand float64 `json:"demand"`
	Value  float64 `json:"value"`
	// MaxRoutes caps the admissible route set (k of k-shortest paths);
	// 0 means DefaultMaxRoutes.
	MaxRoutes int `json:"max_routes,omitempty"`
}

// DefaultMaxRoutes is the route-set size used when a wire request does
// not name one.
const DefaultMaxRoutes = 3

// MaxRoutesLimit is the largest max_routes a wire request may ask for. It
// bounds the route work one request can trigger: without it a large k
// makes Yen's algorithm enumerate loopless paths until none are left.
const MaxRoutesLimit = 16

type wireSegment struct {
	Bytes float64 `json:"bytes"`
	Price float64 `json:"price"`
	Route int     `json:"route"`
	Time  int     `json:"time"`
}

type wireQuoteResponse struct {
	Epoch    uint64        `json:"epoch"`
	Cap      float64       `json:"cap"`
	Segments []wireSegment `json:"segments"`
}

type wireAlloc struct {
	Route int     `json:"route"`
	Time  int     `json:"time"`
	Bytes float64 `json:"bytes"`
}

type wireAdmitResponse struct {
	Epoch      uint64      `json:"epoch"`
	Admitted   bool        `json:"admitted"`
	Bought     float64     `json:"bought,omitempty"`
	Guaranteed float64     `json:"guaranteed,omitempty"`
	Payment    float64     `json:"payment,omitempty"`
	Lambda     float64     `json:"lambda,omitempty"`
	Allocs     []wireAlloc `json:"allocs,omitempty"`
}

type wirePublishRequest struct {
	// BasePrice, when present, replaces the full price matrix
	// ([edge][step], tiled forward if narrower than the horizon).
	BasePrice [][]float64 `json:"base_price,omitempty"`
	// Reserved, when present, replaces the reservation plan and makes
	// the publish adopt it (a SAM re-plan rather than a PC refresh).
	Reserved [][]float64 `json:"reserved,omitempty"`
}

type wireStateResponse struct {
	Epoch   uint64 `json:"epoch"`
	Shards  int    `json:"shards"`
	Horizon int    `json:"horizon"`
	Edges   int    `json:"edges"`
	Nodes   int    `json:"nodes"`
}

// Handler serves the admission API over HTTP:
//
//	POST /v1/quote   — price a transfer (lock-free, non-binding)
//	POST /v1/admit   — admit a transfer (sequenced, binding)
//	POST /v1/publish — install the next pricing epoch
//	GET  /v1/state   — epoch / topology summary
//	GET  /metrics    — obs registry snapshot (when configured)
func Handler(svc *Service, m *obs.Metrics) http.Handler {
	h := &httpServer{svc: svc, m: m}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/quote", h.quote)
	mux.HandleFunc("POST /v1/admit", h.admit)
	mux.HandleFunc("POST /v1/publish", h.publish)
	mux.HandleFunc("GET /v1/state", h.state)
	mux.HandleFunc("GET /metrics", h.metrics)
	return mux
}

type httpServer struct {
	svc *Service
	m   *obs.Metrics
}

// decodeRequest resolves a wire request into a traffic.Request with its
// admissible route set.
func (h *httpServer) decodeRequest(r *http.Request) (*traffic.Request, error) {
	var in wireRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	net := h.svc.Net()
	src, ok := net.NodeByName(in.Src)
	if !ok {
		return nil, fmt.Errorf("unknown src node %q", in.Src)
	}
	dst, ok := net.NodeByName(in.Dst)
	if !ok {
		return nil, fmt.Errorf("unknown dst node %q", in.Dst)
	}
	if src == dst {
		return nil, fmt.Errorf("src and dst are the same node")
	}
	if in.Start < 0 || in.End < in.Start || in.End >= h.svc.Horizon() {
		return nil, fmt.Errorf("window [%d,%d] outside horizon %d", in.Start, in.End, h.svc.Horizon())
	}
	if !(in.Demand > 0) || math.IsInf(in.Demand, 0) {
		return nil, fmt.Errorf("demand must be positive and finite")
	}
	if !(in.Value >= 0) || math.IsInf(in.Value, 0) {
		return nil, fmt.Errorf("value must be non-negative and finite")
	}
	k := in.MaxRoutes
	if k <= 0 {
		k = DefaultMaxRoutes
	}
	if k > MaxRoutesLimit {
		return nil, fmt.Errorf("max_routes %d above the limit %d", k, MaxRoutesLimit)
	}
	routes := net.KShortestPaths(src, dst, k)
	return &traffic.Request{
		ID: in.ID, Src: src, Dst: dst, Routes: routes,
		Arrival: in.Start, Start: in.Start, End: in.End,
		Demand: in.Demand, Value: in.Value, Kind: traffic.ByteRequest,
	}, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (h *httpServer) quote(w http.ResponseWriter, r *http.Request) {
	req, err := h.decodeRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	menu := h.svc.Quote(req, req.Demand)
	out := wireQuoteResponse{Epoch: h.svc.Epoch(), Cap: menu.Cap()}
	for _, s := range menu.Segments {
		out.Segments = append(out.Segments, wireSegment{
			Bytes: s.Bytes, Price: s.Price, Route: s.RouteIdx, Time: s.Time,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *httpServer) admit(w http.ResponseWriter, r *http.Request) {
	req, err := h.decodeRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	adm := h.svc.Admit(req)
	out := wireAdmitResponse{Epoch: h.svc.Epoch()}
	if adm != nil {
		out.Admitted = true
		out.Bought = adm.Bought
		out.Guaranteed = adm.Guaranteed
		out.Payment = adm.Payment
		out.Lambda = adm.Lambda
		for _, a := range adm.Allocs {
			out.Allocs = append(out.Allocs, wireAlloc{Route: a.RouteIdx, Time: a.Time, Bytes: a.Bytes})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *httpServer) publish(w http.ResponseWriter, r *http.Request) {
	var in wirePublishRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	var apply func(next *pricing.State) error
	if in.BasePrice != nil || in.Reserved != nil {
		// Overlay the provided fields on the next epoch's copy of the
		// live picture, so a price-only publish keeps set-asides,
		// outages, and room intact. On a validation error the copy is
		// dropped and nothing is installed.
		apply = func(next *pricing.State) error {
			if in.BasePrice != nil {
				if err := next.SetPricesWindow(0, in.BasePrice); err != nil {
					return err
				}
			}
			if in.Reserved != nil {
				return next.SetReserved(in.Reserved)
			}
			return nil
		}
	}
	if err := h.svc.publish(apply); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"epoch": h.svc.Epoch()})
}

func (h *httpServer) state(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wireStateResponse{
		Epoch:   h.svc.Epoch(),
		Shards:  h.svc.NumShards(),
		Horizon: h.svc.Horizon(),
		Edges:   h.svc.Net().NumEdges(),
		Nodes:   h.svc.Net().NumNodes(),
	})
}

func (h *httpServer) metrics(w http.ResponseWriter, r *http.Request) {
	if h.m == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("metrics not configured"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = h.m.WriteJSON(w)
}
